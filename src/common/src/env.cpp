#include "dcmesh/common/env.hpp"

#include <cctype>
#include <cstdlib>

#include "dcmesh/common/knobs.hpp"

namespace dcmesh {

std::optional<std::string> env_get(std::string_view name) {
  const std::string key(name);
  const char* value = std::getenv(key.c_str());
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

void env_set(std::string_view name, std::string_view value) {
  ::setenv(std::string(name).c_str(), std::string(value).c_str(), 1);
  knob_changed(name);
}

void env_unset(std::string_view name) {
  ::unsetenv(std::string(name).c_str());
  knob_changed(name);
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative matcher with single-star backtracking (classic fnmatch
  // shape); '*' crosses '/' deliberately — sites are flat tags.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace dcmesh
