// Unit tests for environment-variable helpers (the paper's control plane).

#include "dcmesh/common/env.hpp"
#include "dcmesh/common/knobs.hpp"

#include <gtest/gtest.h>

namespace dcmesh {
namespace {

TEST(Env, SetGetUnset) {
  env_set("DCMESH_TEST_VAR", "hello");
  const auto v = env_get("DCMESH_TEST_VAR");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello");
  env_unset("DCMESH_TEST_VAR");
  EXPECT_FALSE(env_get("DCMESH_TEST_VAR").has_value());
}

TEST(Env, EmptyValueReadsAsUnset) {
  env_set("DCMESH_TEST_EMPTY", "");
  EXPECT_FALSE(env_get("DCMESH_TEST_EMPTY").has_value());
  env_unset("DCMESH_TEST_EMPTY");
}

TEST(Env, IntParsing) {
  // The knob table's integer grammar: the whole text, base 10.
  EXPECT_EQ(parse_integer("2"), 2);
  EXPECT_EQ(parse_integer("-7"), -7);
  EXPECT_EQ(parse_integer("not_a_number"), std::nullopt);
  EXPECT_EQ(parse_integer("4x"), std::nullopt);
}

TEST(Env, ToUpper) {
  EXPECT_EQ(to_upper("float_to_bf16"), "FLOAT_TO_BF16");
  EXPECT_EQ(to_upper("Complex_3M"), "COMPLEX_3M");
  EXPECT_EQ(to_upper(""), "");
  EXPECT_EQ(to_upper("123abc!"), "123ABC!");
}

TEST(Env, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nvalue\n"), "value");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no_trim"), "no_trim");
}

}  // namespace
}  // namespace dcmesh
