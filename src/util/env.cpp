#include "util/env.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace cesm::util {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::size_t p = 0;
  while (p < text.size() && is_space(text[p])) ++p;
  const std::size_t digits = p;
  std::uint64_t acc = 0;
  bool overflow = false;
  for (; p < text.size() && text[p] >= '0' && text[p] <= '9'; ++p) {
    const auto digit = static_cast<std::uint64_t>(text[p] - '0');
    if (acc > (UINT64_MAX - digit) / 10) {
      overflow = true;
    } else {
      acc = acc * 10 + digit;
    }
  }
  const std::size_t end = p;
  while (p < text.size() && is_space(text[p])) ++p;
  // Reject: no digits at all (covers "", "-1", "+5", "abc"), trailing
  // garbage after the digit run ("64abc"), or 64-bit overflow. strtoull
  // would have accepted the first two shapes — "-1" via unsigned
  // wraparound — which is exactly what this parser exists to stop.
  if (digits == end || p != text.size() || overflow) return std::nullopt;
  return acc;
}

std::optional<std::uint64_t> parse_env_u64(const char* name, const char* value) {
  if (value == nullptr) return std::nullopt;
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v && *value != '\0') {
    std::fprintf(stderr, "%s ignored: not a non-negative integer: \"%s\"\n", name, value);
  }
  return v;
}

std::optional<std::uint64_t> env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return parse_env_u64(name, value);
}

std::optional<std::uint64_t> parse_flag_u64(const char* flag, const char* value,
                                            std::uint64_t lo, std::uint64_t hi) {
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v) {
    std::fprintf(stderr, "%s: not a non-negative integer: \"%s\"\n", flag, value);
    return std::nullopt;
  }
  if (*v < lo) {
    std::fprintf(stderr, "%s: %" PRIu64 " is below the minimum %" PRIu64 "\n", flag, *v, lo);
    return std::nullopt;
  }
  if (*v > hi) {
    std::fprintf(stderr, "%s: %" PRIu64 " is above the maximum %" PRIu64 "\n", flag, *v, hi);
    return std::nullopt;
  }
  return v;
}

}  // namespace cesm::util
