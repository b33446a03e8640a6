#pragma once
// env.hpp — environment-variable access helpers.
//
// The whole point of the paper's methodology is that precision modes are
// switched with *no source changes*, only environment variables
// (MKL_BLAS_COMPUTE_MODE, MKL_VERBOSE).  These helpers write the
// environment and normalise its text; knobs.hpp is the one place that
// reads the engine's knobs.

#include <optional>
#include <string>
#include <string_view>

namespace dcmesh {

/// Read an environment variable, uncached; nullopt when unset or empty.
/// The engine's own knobs are read through knob_value() (knobs.hpp).
[[nodiscard]] std::optional<std::string> env_get(std::string_view name);

/// Set (or overwrite) an environment variable in this process; a knob's
/// next read sees the new value.
void env_set(std::string_view name, std::string_view value);

/// Remove an environment variable from this process; a knob's next read
/// sees its default.
void env_unset(std::string_view name);

/// ASCII upper-case copy (env values are matched case-insensitively, as
/// oneMKL does for MKL_BLAS_COMPUTE_MODE).
[[nodiscard]] std::string to_upper(std::string_view s);

/// ASCII lower-case copy (deck keys are case-insensitive; the canonical
/// spelling is lower).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Glob match over call-site tags: '*' matches any sequence (including
/// '/'), '?' exactly one character, everything else literally.
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text) noexcept;

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

}  // namespace dcmesh
