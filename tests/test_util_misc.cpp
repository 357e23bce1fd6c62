#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/agreement.hpp"
#include "util/contracts.hpp"
#include "util/parse.hpp"

namespace da {
namespace {

TEST(Contracts, ExpectsThrowsWithLocation) {
  try {
    DA_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_util_misc.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresThrows) {
  EXPECT_THROW(DA_ENSURES(false), std::logic_error);
  EXPECT_NO_THROW(DA_ENSURES(true));
}

TEST(OutcomeTest, DecisionOfMissingNodeThrows) {
  sim::RunResult result;
  result.decisions[1] = Value::of(3);
  EXPECT_EQ(result.decisions.at(1), Value::of(3));
  EXPECT_THROW((void)result.decisions.at(2), std::logic_error);
}

TEST(DegradableAgreementFacade, RoundsMatchDepth) {
  EXPECT_EQ(DegradableAgreement(Config{.n = 5, .m = 0, .u = 2}).rounds(), 2);
  EXPECT_EQ(DegradableAgreement(Config{.n = 7, .m = 1, .u = 4}).rounds(), 2);
  EXPECT_EQ(DegradableAgreement(Config{.n = 7, .m = 2, .u = 2}).rounds(), 3);
}

TEST(DegradableAgreementFacade, InvalidConfigRejected) {
  EXPECT_THROW(DegradableAgreement(Config{.n = 3, .m = 2, .u = 1}),
               std::logic_error);
}

/// A command line "prog args..." that outlives the positionals read from it.
struct CommandLine {
  explicit CommandLine(std::vector<std::string> args) : args_(std::move(args)) {
    argv_.push_back(program_.data());
    for (std::string& arg : args_) argv_.push_back(arg.data());
  }
  std::vector<std::string_view> read(const ArgReader& reader,
                                     std::size_t max_positionals = 0) {
    return reader.read(static_cast<int>(argv_.size()), argv_.data(), 1,
                       max_positionals);
  }

 private:
  std::string program_ = "prog";
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST(ArgReader, FormsKindsBoundariesAndRefusals) {
  // The refusals below are death tests. An earlier test in this process
  // may have started the threaded runtime's pool thread, and a child
  // forked beside a live thread can hang on a lock that thread held, so
  // each death test re-executes the binary instead of forking it as is.
  // (`GTEST_FLAG_SET` needs gtest 1.12.)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  int jobs = 1;
  std::uint8_t small = 0;
  double rate = 1.0;
  char policy = '?';
  std::string path = "unset";
  bool trace = false;
  ArgReader reader("prog", "usage: prog [flags]");
  reader.integer("--jobs", jobs, 0, kMaxJobs)
      .integer<std::uint8_t>("--small", small, 1, 255)
      .real("--rate", rate)
      .choice("--policy", policy, {{"shed", 's'}, {"block", 'b'}})
      .text("--out", path)
      .flag("--trace", trace);
  const auto reads = [&](std::vector<std::string> args) {
    CommandLine line(std::move(args));
    EXPECT_TRUE(line.read(reader).empty());
  };
  const auto refused = [&](std::vector<std::string> args) {
    CommandLine line(std::move(args));
    line.read(reader);
  };

  // `--name value` and `--name=value`; a repeated flag keeps the last.
  reads({"--jobs", "3"});
  EXPECT_EQ(jobs, 3);
  reads({"--jobs=4"});
  EXPECT_EQ(jobs, 4);
  reads({"--jobs", "5", "--jobs=6"});
  EXPECT_EQ(jobs, 6);

  // Integers: both bounds, read whole, in their own type.
  reads({"--jobs", "0", "--small", "1"});
  EXPECT_EQ(jobs, 0);
  EXPECT_EQ(small, 1);
  reads({"--jobs", std::to_string(kMaxJobs), "--small", "255"});
  EXPECT_EQ(jobs, kMaxJobs);
  EXPECT_EQ(small, 255);
  const std::string jobs_error = "prog: --jobs expects an integer in \\[0, " +
                                 std::to_string(kMaxJobs) + "\\]";
  for (const std::string& bad : std::vector<std::string>{
           "-1", std::to_string(kMaxJobs + 1), "abc", "1e3", "99999999999", "",
        "+4", " 4", "4 "}) {
    EXPECT_EXIT(refused({"--jobs", bad}), ::testing::ExitedWithCode(2),
                jobs_error)
        << bad;
  }
  EXPECT_EXIT(refused({"--small=0"}), ::testing::ExitedWithCode(2),
              "--small expects an integer in \\[1, 255\\]");
  EXPECT_EXIT(refused({"--small", "256"}), ::testing::ExitedWithCode(2),
              "--small expects");

  // Reals: finite and positive.
  reads({"--rate", "1e3"});
  EXPECT_EQ(rate, 1000.0);
  reads({"--rate=1e-300"});
  EXPECT_GT(rate, 0.0);
  for (const char* bad :
       {"0", "-1", "nan", "inf", "-inf", "abc", "", "1e999"}) {
    EXPECT_EXIT(refused({"--rate", bad}), ::testing::ExitedWithCode(2),
                "prog: --rate expects a finite positive number")
        << bad;
  }

  // Choices: only the table's names.
  reads({"--policy", "block"});
  EXPECT_EQ(policy, 'b');
  reads({"--policy=shed"});
  EXPECT_EQ(policy, 's');
  EXPECT_EXIT(refused({"--policy", "Shed"}), ::testing::ExitedWithCode(2),
              "prog: --policy expects one of shed.block");

  // Text is taken as given, empty and dash-led included.
  reads({"--out", "-x"});
  EXPECT_EQ(path, "-x");
  reads({"--out="});
  EXPECT_EQ(path, "");

  // A switch takes no value.
  reads({"--trace"});
  EXPECT_TRUE(trace);
  EXPECT_EXIT(refused({"--trace=1"}), ::testing::ExitedWithCode(2),
              "prog: --trace expects no value");

  // A valued flag at the end of argv, an unknown flag, a stray positional.
  EXPECT_EXIT(refused({"--jobs"}), ::testing::ExitedWithCode(2), jobs_error);
  EXPECT_EXIT(refused({"--bogus", "1"}), ::testing::ExitedWithCode(2),
              "prog: unknown flag --bogus.usage: prog \\[flags\\]");
  EXPECT_EXIT(refused({"stray"}), ::testing::ExitedWithCode(2),
              "prog: unexpected argument `stray`");

  // Positionals keep their order, `-1` among them; `number` reads one.
  CommandLine line({"7", "--jobs", "2", "-1"});
  const std::vector<std::string_view> positionals = line.read(reader, 2);
  ASSERT_EQ(positionals.size(), 2u);
  EXPECT_EQ(positionals[0], "7");
  EXPECT_EQ(positionals[1], "-1");
  EXPECT_EQ(reader.number("SEED", positionals[0], 0, 9), 7);
  EXPECT_EXIT((void)reader.number("SEED", positionals[1], 0, 9),
              ::testing::ExitedWithCode(2),
              "prog: SEED expects an integer in \\[0, 9\\]");
  EXPECT_EXIT(refused({"1", "2", "3"}), ::testing::ExitedWithCode(2),
              "unexpected argument `1`");
}

}  // namespace
}  // namespace da
