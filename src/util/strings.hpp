#pragma once
// Small string helpers used by caption generation and table printing.

#include <string>
#include <vector>

namespace aero::util {

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Lowercases ASCII letters.
std::string to_lower(std::string text);

/// Appends the canonical prompt form of `text` to `out`: lower-cased,
/// whitespace runs collapsed to single spaces, edges trimmed. The
/// pipeline's condition-cache key is built from it, so captions that
/// differ only in case or spacing share one cache entry.
void append_canonical_prompt(std::string& out, const std::string& text);

/// Splits on any run of whitespace; no empty tokens.
std::vector<std::string> split_whitespace(const std::string& text);

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& text, char delim);

/// Fixed-width numeric formatting for table rows, e.g. format_fixed(3.14159, 2)
/// -> "3.14".
std::string format_fixed(double value, int decimals);

/// Pads/truncates to `width`, left-aligned.
std::string pad_right(std::string text, std::size_t width);

}  // namespace aero::util
