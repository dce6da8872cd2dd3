#include "support/strings.h"

#include <cctype>
#include <cstdio>

namespace chef {

std::vector<std::string>
Split(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            parts.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

std::string
Join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
            out += sep;
        }
        out += parts[i];
    }
    return out;
}

std::string
Trim(const std::string& text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
StartsWith(const std::string& text, const std::string& prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
EndsWith(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
EscapeBytes(const std::vector<uint8_t>& bytes)
{
    std::string out;
    for (uint8_t b : bytes) {
        if (b >= 0x20 && b < 0x7f && b != '\\' && b != '"') {
            out.push_back(static_cast<char>(b));
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", b);
            out += buf;
        }
    }
    return out;
}

uint64_t
FnvHash(const void* data, size_t size, uint64_t seed)
{
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

}  // namespace chef
