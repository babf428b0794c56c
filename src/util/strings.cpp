#include "util/strings.hpp"

#include <cctype>
#include <cstdio>

namespace aero::util {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string to_lower(std::string text) {
    for (char& c : text) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return text;
}

void append_canonical_prompt(std::string& out, const std::string& text) {
    bool pending_space = false;
    bool emitted = false;
    for (const char c : text) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            pending_space = emitted;
            continue;
        }
        if (pending_space) {
            out += ' ';
            pending_space = false;
        }
        out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        emitted = true;
    }
}

std::vector<std::string> split_whitespace(const std::string& text) {
    std::vector<std::string> tokens;
    std::string current;
    for (char c : text) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty()) tokens.push_back(current);
    return tokens;
}

std::vector<std::string> split(const std::string& text, char delim) {
    std::vector<std::string> fields;
    std::string current;
    for (char c : text) {
        if (c == delim) {
            fields.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    fields.push_back(current);
    return fields;
}

std::string format_fixed(double value, int decimals) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

std::string pad_right(std::string text, std::size_t width) {
    if (text.size() > width) text.resize(width);
    while (text.size() < width) text.push_back(' ');
    return text;
}

}  // namespace aero::util
