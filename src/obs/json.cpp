#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace powergear::obs {

namespace {

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
    static const char* names[] = {"null", "bool", "number", "string", "object",
                                  "array"};
    throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                             names[static_cast<int>(got)]);
}

/// Shortest decimal form that round-trips the double: try increasing
/// precision until strtod gives the value back.
std::string format_number(double d) {
    if (!std::isfinite(d))
        throw std::runtime_error("json: non-finite number not representable");
    if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
        std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(static_cast<std::int64_t>(d)));
        return buf;
    }
    for (int prec = 6; prec <= 17; ++prec) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
}

void escape_string(const std::string& s, std::string& out) {
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

bool JsonValue::as_bool() const {
    if (kind_ != Kind::Bool) kind_error("bool", kind_);
    return bool_;
}

double JsonValue::as_number() const {
    if (kind_ != Kind::Number) kind_error("number", kind_);
    return num_;
}

const std::string& JsonValue::as_string() const {
    if (kind_ != Kind::String) kind_error("string", kind_);
    return str_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
    if (kind_ != Kind::Object) kind_error("object", kind_);
    return obj_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
    if (kind_ != Kind::Array) kind_error("array", kind_);
    return arr_;
}

void JsonValue::set(const std::string& key, JsonValue v) {
    if (kind_ != Kind::Object) kind_error("object", kind_);
    obj_[key] = std::move(v);
}

const JsonValue* JsonValue::get(const std::string& key) const {
    if (kind_ != Kind::Object) kind_error("object", kind_);
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const JsonValue* v = get(key);
    if (!v) throw std::runtime_error("json: missing key '" + key + "'");
    return *v;
}

void JsonValue::push_back(JsonValue v) {
    if (kind_ != Kind::Array) kind_error("array", kind_);
    arr_.push_back(std::move(v));
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
    const std::string pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                   : std::string();
    const std::string close_pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                   : std::string();
    const char* nl = indent > 0 ? "\n" : "";
    const char* colon = indent > 0 ? ": " : ":";
    switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: out += format_number(num_); break;
    case Kind::String: escape_string(str_, out); break;
    case Kind::Object: {
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        bool first = true;
        for (const auto& [k, v] : obj_) {
            if (!first) {
                out += ',';
                out += nl;
            }
            first = false;
            out += pad;
            escape_string(k, out);
            out += colon;
            v.dump_to(out, indent, depth + 1);
        }
        out += nl;
        out += close_pad;
        out += '}';
        break;
    }
    case Kind::Array: {
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        bool first = true;
        for (const auto& v : arr_) {
            if (!first) {
                out += ',';
                out += nl;
            }
            first = false;
            out += pad;
            v.dump_to(out, indent, depth + 1);
        }
        out += nl;
        out += close_pad;
        out += ']';
        break;
    }
    }
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

} // namespace powergear::obs
