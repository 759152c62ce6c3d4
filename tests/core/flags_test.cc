#include "core/flags.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::core {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>* storage) {
  std::vector<char*> argv;
  for (auto& s : *storage) argv.push_back(s.data());
  return argv;
}

TEST(FlagParserTest, ParsesAllTypes) {
  FlagParser flags;
  int rounds = 40;
  int64_t big = 7;
  double lr = 0.1;
  bool verbose = false;
  std::string name = "default";
  flags.AddInt("rounds", &rounds, "");
  flags.AddInt("big", &big, "");
  flags.AddDouble("lr", &lr, "");
  flags.AddBool("verbose", &verbose, "");
  flags.AddString("name", &name, "");

  std::vector<std::string> storage = {"prog", "--rounds=10", "--big=123456789012",
                                      "--lr=0.005", "--verbose=true",
                                      "--name=fedda"};
  auto argv = MakeArgv(&storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(rounds, 10);
  EXPECT_EQ(big, 123456789012LL);
  EXPECT_DOUBLE_EQ(lr, 0.005);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "fedda");
}

TEST(FlagParserTest, DefaultsSurviveWhenUnset) {
  FlagParser flags;
  int rounds = 40;
  flags.AddInt("rounds", &rounds, "");
  std::vector<std::string> storage = {"prog"};
  auto argv = MakeArgv(&storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(rounds, 40);
}

TEST(FlagParserTest, BareBoolFlagMeansTrue) {
  FlagParser flags;
  bool verbose = false;
  flags.AddBool("verbose", &verbose, "");
  std::vector<std::string> storage = {"prog", "--verbose"};
  auto argv = MakeArgv(&storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser flags;
  std::vector<std::string> storage = {"prog", "--nope=1"};
  auto argv = MakeArgv(&storage);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, MalformedValuesRejected) {
  FlagParser flags;
  int rounds = 0;
  double lr = 0.0;
  flags.AddInt("rounds", &rounds, "");
  flags.AddDouble("lr", &lr, "");
  {
    std::vector<std::string> storage = {"prog", "--rounds=abc"};
    auto argv = MakeArgv(&storage);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
  {
    std::vector<std::string> storage = {"prog", "--lr=1.5x"};
    auto argv = MakeArgv(&storage);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
}

TEST(FlagParserTest, OutOfRangeNumericValuesRejected) {
  // Regression: strtoll/strtod saturate on overflow and only signal via
  // errno, which Parse never checked — --rounds=99999999999999999999 used
  // to silently become LLONG_MAX-clamped garbage instead of an error.
  FlagParser flags;
  int rounds = 0;
  int64_t big = 0;
  double lr = 0.0;
  flags.AddInt("rounds", &rounds, "");
  flags.AddInt("big", &big, "");
  flags.AddDouble("lr", &lr, "");
  const std::vector<std::string> bad = {
      "--rounds=99999999999999999999",   // > LLONG_MAX: strtoll saturates
      "--rounds=-99999999999999999999",  // < LLONG_MIN
      "--rounds=3000000000",             // fits long, not int (LP64)
      "--rounds=-3000000000",
      "--big=9223372036854775808",       // LLONG_MAX + 1
      "--big=-9223372036854775809",      // LLONG_MIN - 1
      "--lr=1e400",                      // > DBL_MAX: strtod returns inf
      "--lr=-1e400",
      "--lr=1e-400",                     // denormal underflow, ERANGE
  };
  for (const std::string& arg : bad) {
    std::vector<std::string> storage = {"prog", arg};
    auto argv = MakeArgv(&storage);
    const Status status =
        flags.Parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(status.ok()) << arg << " should have been rejected";
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << arg << " -> " << status.message();
  }
}

TEST(FlagParserTest, BoundaryNumericValuesStillAccepted) {
  // The exact representable extremes must keep parsing: the range check
  // rejects ERANGE saturation, not large-but-valid values.
  FlagParser flags;
  int rounds = 0;
  int64_t big = 0;
  flags.AddInt("rounds", &rounds, "");
  flags.AddInt("big", &big, "");
  std::vector<std::string> storage = {"prog", "--rounds=2147483647",
                                      "--big=9223372036854775807"};
  auto argv = MakeArgv(&storage);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(rounds, 2147483647);
  EXPECT_EQ(big, 9223372036854775807LL);

  std::vector<std::string> storage_min = {"prog", "--rounds=-2147483648",
                                          "--big=-9223372036854775808"};
  auto argv_min = MakeArgv(&storage_min);
  ASSERT_TRUE(
      flags.Parse(static_cast<int>(argv_min.size()), argv_min.data()).ok());
  EXPECT_EQ(rounds, -2147483647 - 1);
  EXPECT_EQ(big, -9223372036854775807LL - 1);
}

TEST(FlagParserTest, NonFlagArgumentRejected) {
  FlagParser flags;
  std::vector<std::string> storage = {"prog", "positional"};
  auto argv = MakeArgv(&storage);
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, ErrorsPrintedToStderrOnce) {
  // Mains exit on a failed Parse without printing, so Parse itself must
  // report every error but --help, exactly once.
  FlagParser flags;
  int rounds = 40;
  flags.AddInt("rounds", &rounds, "communication rounds");
  auto parse_stderr = [&flags](std::string arg) {
    std::vector<std::string> storage = {"prog", std::move(arg)};
    auto argv = MakeArgv(&storage);
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const Status status =
        flags.Parse(static_cast<int>(argv.size()), argv.data());
    const std::string err = ::testing::internal::GetCapturedStderr();
    ::testing::internal::GetCapturedStdout();
    EXPECT_FALSE(status.ok());
    return err;
  };

  // The unknown-flag message leads and is followed by the usage text;
  // rfind == 0 means it appears exactly once.
  const std::string unknown = parse_stderr("--roundz=3");
  EXPECT_EQ(unknown.rfind("unknown flag: --roundz\n"), 0u) << unknown;
  EXPECT_NE(unknown.find("--rounds"), std::string::npos) << unknown;
  EXPECT_EQ(parse_stderr("--rounds=abc"), "bad integer for --rounds: abc\n");
  EXPECT_EQ(parse_stderr("--help"), "");
}

TEST(FlagParserTest, UsageListsFlagsWithDefaults) {
  FlagParser flags;
  int rounds = 40;
  flags.AddInt("rounds", &rounds, "communication rounds");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--rounds"), std::string::npos);
  EXPECT_NE(usage.find("40"), std::string::npos);
  EXPECT_NE(usage.find("communication rounds"), std::string::npos);
}

}  // namespace
}  // namespace fedda::core
