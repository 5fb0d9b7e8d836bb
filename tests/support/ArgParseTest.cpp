//===- tests/support/ArgParseTest.cpp --------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <gtest/gtest.h>

using namespace hcsgc;

static ArgParse parse(std::vector<std::string> Argv) {
  static std::vector<std::string> Storage;
  Storage = std::move(Argv);
  static std::vector<char *> Ptrs;
  Ptrs.clear();
  Ptrs.push_back(const_cast<char *>("prog"));
  for (auto &S : Storage)
    Ptrs.push_back(S.data());
  return ArgParse(static_cast<int>(Ptrs.size()), Ptrs.data());
}

TEST(ArgParseTest, KeyValue) {
  ArgParse A = parse({"--runs=7", "--name=hello"});
  EXPECT_EQ(A.getInt("runs", 1), 7);
  EXPECT_EQ(A.getString("name", "x"), "hello");
}

TEST(ArgParseTest, Defaults) {
  ArgParse A = parse({});
  EXPECT_EQ(A.getInt("missing", 42), 42);
  EXPECT_EQ(A.getString("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(A.getDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(A.getBool("missing", true));
  EXPECT_FALSE(A.getBool("missing", false));
}

TEST(ArgParseTest, BareFlagIsTrue) {
  ArgParse A = parse({"--verbose"});
  EXPECT_TRUE(A.getBool("verbose", false));
}

TEST(ArgParseTest, ExplicitFalse) {
  ArgParse A = parse({"--verbose=0", "--x=false", "--y=off"});
  EXPECT_FALSE(A.getBool("verbose", true));
  EXPECT_FALSE(A.getBool("x", true));
  EXPECT_FALSE(A.getBool("y", true));
}

TEST(ArgParseTest, DoubleParsing) {
  ArgParse A = parse({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(A.getDouble("scale", 1.0), 0.25);
}

TEST(ArgParseTest, IntegerForms) {
  ArgParse A = parse({"--n=-3", "--hex=0x10"});
  EXPECT_EQ(A.getInt("n", 0), -3);
  EXPECT_EQ(A.getInt("hex", 0), 16);
}

TEST(ArgParseDeathTest, MalformedIntegerNamesTheFlag) {
  EXPECT_EXIT(parse({"--heap-mb=abc"}).getInt("heap-mb", 64),
              ::testing::ExitedWithCode(2), "--heap-mb: 'abc'");
  EXPECT_EXIT(parse({"--runs=3x"}).getInt("runs", 1),
              ::testing::ExitedWithCode(2), "--runs: '3x'");
  EXPECT_EXIT(parse({"--runs="}).getInt("runs", 1),
              ::testing::ExitedWithCode(2), "--runs");
  EXPECT_EXIT(parse({"--runs=99999999999999999999"}).getInt("runs", 1),
              ::testing::ExitedWithCode(2), "--runs");
}

TEST(ArgParseDeathTest, MalformedDoubleNamesTheFlag) {
  EXPECT_EXIT(parse({"--trigger=abc"}).getDouble("trigger", 0.7),
              ::testing::ExitedWithCode(2), "--trigger: 'abc'");
  EXPECT_EXIT(parse({"--trigger=0.5junk"}).getDouble("trigger", 0.7),
              ::testing::ExitedWithCode(2), "--trigger: '0.5junk'");
}

TEST(ArgParseTest, NonFlagArgumentsIgnored) {
  ArgParse A = parse({"positional", "--k=1"});
  EXPECT_EQ(A.getInt("k", 0), 1);
  EXPECT_EQ(A.getInt("positional", 9), 9);
}

TEST(ArgParseTest, RejectUnknownAcceptsFlagsThatWereRead) {
  ArgParse A = parse({"--runs=2", "--verbose"});
  EXPECT_EQ(A.getInt("runs", 1), 2);
  EXPECT_TRUE(A.getBool("verbose", false));
  EXPECT_EQ(A.getString("absent", "d"), "d");
  // Every --flag was read: no exit.
  A.rejectUnknown();
}

TEST(ArgParseDeathTest, RejectUnknownNamesBareAndSingleDashArguments) {
  // `-runs=1` is a mistyped flag, not a value: no getter reads it, and
  // it must not fall through to the default.
  auto Check = [] {
    ArgParse A = parse({"-runs=1", "--configs=0", "-bogus-flag", "bare"});
    EXPECT_EQ(A.getInt("runs", 3), 3);
    (void)A.getString("configs", "");
    A.rejectUnknown();
  };
  EXPECT_EXIT(Check(), ::testing::ExitedWithCode(2),
              "unknown argument: -runs=1\n.*unknown argument: "
              "-bogus-flag\n.*unknown argument: bare");
}

TEST(ArgParseDeathTest, RejectUnknownNamesEveryUnreadFlag) {
  auto Check = [] {
    ArgParse A = parse({"--runs=2", "--verbose-gc", "--trace=1"});
    (void)A.getInt("runs", 1);
    A.rejectUnknown();
  };
  EXPECT_EXIT(Check(), ::testing::ExitedWithCode(2),
              "unknown flag: --trace\n.*unknown flag: --verbose-gc");
}
