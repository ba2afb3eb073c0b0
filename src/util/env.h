#pragma once
// Strict numeric parsing for environment variables and command-line flags
// (cesm::util).
//
// A long-lived multi-client process cannot afford the classic strtoull
// foot-guns: "-1" wrapping around to a ~16-exabyte cache budget, "64abc"
// silently reading as 64, or an out-of-range value truncating. Every
// numeric CESM_* variable and every numeric command-line flag goes through
// parse_u64(). The policies differ only in what a rejection means:
//   * environment (env_u64): the value is reported on stderr and IGNORED
//     (the caller keeps its default), matching the CESM_FAILPOINTS
//     malformed-spec contract — never trusted, never fatal;
//   * flags (parse_flag_u64): the value is reported on stderr and the tool
//     exits with a usage error (code 2) — a typo must not run a different
//     job than the one asked for.

#include <cstdint>
#include <optional>
#include <string_view>

namespace cesm::util {

/// Parse `text` as a non-negative decimal integer. Rejects empty strings,
/// any sign ('-' wraparound is exactly the bug this exists to kill; '+' is
/// rejected for symmetry), non-digit or trailing garbage, and values that
/// overflow 64 bits. Leading/trailing ASCII whitespace is tolerated.
/// Silent; returns nullopt on rejection.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// parse_u64 for the environment variable `name`: a rejected non-empty
/// value is reported on stderr as ignored. Null `value` returns nullopt.
std::optional<std::uint64_t> parse_env_u64(const char* name, const char* value);

/// getenv(name) + parse_env_u64. Unset or empty returns nullopt silently
/// (absence is not an error); a present-but-malformed value warns.
std::optional<std::uint64_t> env_u64(const char* name);

/// parse_u64 of `value` (non-null) for the command-line flag `flag` (e.g.
/// "--members"), bounded to [lo, hi]: a malformed or out-of-range value is
/// reported on stderr, naming the flag, and nullopt returned for the
/// caller's usage error.
std::optional<std::uint64_t> parse_flag_u64(const char* flag, const char* value,
                                            std::uint64_t lo = 0,
                                            std::uint64_t hi = UINT64_MAX);

}  // namespace cesm::util
