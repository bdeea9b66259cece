#include "json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace powergear::testutil {

using obs::JsonValue;

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw std::runtime_error("json parse error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        std::size_t n = 0;
        while (lit[n]) ++n;
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') return JsonValue(parse_string());
        if (c == 't') {
            if (!consume_literal("true")) fail("bad literal");
            return JsonValue(true);
        }
        if (c == 'f') {
            if (!consume_literal("false")) fail("bad literal");
            return JsonValue(false);
        }
        if (c == 'n') {
            if (!consume_literal("null")) fail("bad literal");
            return JsonValue();
        }
        return parse_number();
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue v = JsonValue::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.set(key, parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue v = JsonValue::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else fail("bad hex digit in \\u escape");
                }
                // Encode as UTF-8 (BMP only; our schemas never emit
                // surrogate pairs — reject rather than mis-decode).
                if (code >= 0xd800 && code <= 0xdfff)
                    fail("surrogate pairs unsupported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size()) {
            pos_ = start;
            fail("malformed number '" + tok + "'");
        }
        return JsonValue(d);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

obs::PhaseStats phase_from_json(const JsonValue& p) {
    obs::PhaseStats st;
    st.calls = static_cast<std::uint64_t>(p.at("calls").as_number());
    st.total_s = p.at("total_s").as_number();
    st.p50_ms = p.at("p50_ms").as_number();
    st.p95_ms = p.at("p95_ms").as_number();
    st.max_ms = p.at("max_ms").as_number();
    for (const auto& [name, v] : p.at("counters").as_object())
        st.counters[name] = static_cast<std::uint64_t>(v.as_number());
    // rates_per_s is derived output; recomputed on serialization.
    return st;
}

} // namespace

JsonValue parse_json(const std::string& text) {
    return Parser(text).parse_document();
}

obs::Report report_from_json(const std::string& text) {
    const JsonValue root = parse_json(text);
    const std::string schema = root.at("schema").as_string();
    if (schema != "powergear-obs-v1")
        throw std::runtime_error("obs::Report: unknown schema '" + schema + "'");
    obs::Report rep;
    rep.wall_s = root.at("wall_s").as_number();
    rep.jobs = static_cast<int>(root.at("jobs").as_number());
    for (const auto& [name, p] : root.at("phases").as_object())
        rep.phases[name] = phase_from_json(p);
    return rep;
}

} // namespace powergear::testutil
