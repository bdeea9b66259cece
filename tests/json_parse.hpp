// Strict JSON reading for tests: the inverse of obs::JsonValue::dump and
// obs::Report::to_json, used to validate what the program emits (metrics
// reports, diagnostics, SARIF). No program reads JSON back, so this lives
// with the tests, not in the library.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace powergear::testutil {

/// Strict parse of a complete JSON document (trailing garbage rejected).
/// Throws std::runtime_error with a byte offset on malformed input.
obs::JsonValue parse_json(const std::string& text);

/// Strict inverse of obs::Report::to_json (unknown phase keys are kept
/// verbatim: the schema is forward-extensible by adding phases). Throws
/// std::runtime_error on malformed input or schema mismatch.
obs::Report report_from_json(const std::string& text);

} // namespace powergear::testutil
