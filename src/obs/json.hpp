// Minimal JSON value tree and writer.
//
// Serves the machine-readable formats this repo emits: obs metrics reports
// (obs/report.*), analysis diagnostics and SARIF, and benchmark results
// (bench/, read back by scripts/bench_gate.py). Deliberately small: no
// NaN/Inf (every schema is finite by construction), UTF-8 passed through
// verbatim with standard escapes. No program reads JSON back; the strict
// parser the tests validate output with lives in tests/json_parse.*.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace powergear::obs {

/// One JSON value. Objects keep key order sorted (std::map) so dumps are
/// canonical: the same data always serializes to the same bytes, which lets
/// tests compare reports textually and keeps committed baselines diff-stable.
class JsonValue {
public:
    enum class Kind { Null, Bool, Number, String, Object, Array };

    JsonValue() : kind_(Kind::Null) {}
    explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    explicit JsonValue(double d) : kind_(Kind::Number), num_(d) {}
    explicit JsonValue(std::int64_t i)
        : kind_(Kind::Number), num_(static_cast<double>(i)) {}
    explicit JsonValue(std::uint64_t u)
        : kind_(Kind::Number), num_(static_cast<double>(u)) {}
    explicit JsonValue(const char* s) : kind_(Kind::String), str_(s) {}
    explicit JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static JsonValue object() {
        JsonValue v;
        v.kind_ = Kind::Object;
        return v;
    }
    static JsonValue array() {
        JsonValue v;
        v.kind_ = Kind::Array;
        return v;
    }

    Kind kind() const { return kind_; }

    /// Typed accessors; throw std::runtime_error on kind mismatch so schema
    /// drift surfaces as an error, not a silent zero.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const std::map<std::string, JsonValue>& as_object() const;
    const std::vector<JsonValue>& as_array() const;

    /// Object field access. set() inserts or overwrites; get() returns
    /// nullptr when absent; at() throws with the missing key in the message.
    void set(const std::string& key, JsonValue v);
    const JsonValue* get(const std::string& key) const;
    const JsonValue& at(const std::string& key) const;

    /// Array append.
    void push_back(JsonValue v);

    /// Serialize. `indent` > 0 pretty-prints with that many spaces per
    /// level; 0 emits compact single-line JSON. Numbers use up to 17
    /// significant digits (round-trip exact for doubles) with trailing-zero
    /// trimming so integers print as integers.
    std::string dump(int indent = 2) const;

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::map<std::string, JsonValue> obj_;
    std::vector<JsonValue> arr_;
};

} // namespace powergear::obs
