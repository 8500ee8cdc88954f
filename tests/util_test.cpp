// Tests for the util module: assertions, tables, CLI flags, thread pool.

#include <gtest/gtest.h>

#include <atomic>

#include "util/util.hpp"

namespace coupon {
namespace {

// --- assertions -------------------------------------------------------------

TEST(Assert, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(COUPON_ASSERT(1 + 1 == 2));
}

TEST(Assert, FailingConditionThrowsAssertionError) {
  EXPECT_THROW(COUPON_ASSERT(false), AssertionError);
}

TEST(Assert, MessageCarriesExpressionAndLocation) {
  try {
    COUPON_ASSERT(2 < 1);
    FAIL() << "expected throw";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Assert, StreamedMessageIsIncluded) {
  try {
    const int r = 7;
    COUPON_ASSERT_MSG(r == 3, "load was " << r);
    FAIL() << "expected throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("load was 7"), std::string::npos);
  }
}

// --- tables -----------------------------------------------------------------

TEST(AsciiTable, RendersHeadersAndRows) {
  AsciiTable t({"scheme", "K"});
  t.add_row({"BCC", "11"});
  t.add_row({"uncoded", "50"});
  const std::string s = t.render();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("BCC"), std::string::npos);
  EXPECT_NE(s.find("50"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, RejectsRaggedRow) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), AssertionError);
}

TEST(AsciiTable, ColumnsPadToWidestCell) {
  AsciiTable t({"x"});
  t.add_row({"wide-cell-content"});
  const std::string s = t.render();
  // Header row must be padded to the same width as the data row.
  const auto first_line_end = s.find('\n');
  const auto second_line_end = s.find('\n', first_line_end + 1);
  const auto third_line_end = s.find('\n', second_line_end + 1);
  EXPECT_EQ(first_line_end, second_line_end - first_line_end - 1
                ? first_line_end
                : first_line_end);
  // All rendered lines have equal length.
  std::size_t prev = 0;
  std::size_t expected_len = std::string::npos;
  for (std::size_t pos = s.find('\n'); pos != std::string::npos;
       prev = pos + 1, pos = s.find('\n', prev)) {
    const std::size_t len = pos - prev;
    if (expected_len == std::string::npos) {
      expected_len = len;
    }
    EXPECT_EQ(len, expected_len);
  }
  (void)third_line_end;
}

TEST(AsciiTable, SeparatorAddsRule) {
  AsciiTable t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.render();
  // 5 horizontal rules: top, under header, separator, bottom... count '+'
  // lines instead of exact layout.
  std::size_t rules = 0;
  std::size_t prev = 0;
  for (std::size_t pos = s.find('\n'); pos != std::string::npos;
       prev = pos + 1, pos = s.find('\n', prev)) {
    if (s[prev] == '+') {
      ++rules;
    }
  }
  EXPECT_EQ(rules, 4u);
}

TEST(FormatHelpers, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(FormatHelpers, FormatPercent) {
  EXPECT_EQ(format_percent(0.854, 1), "85.4%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

// --- CLI flags ---------------------------------------------------------------

TEST(CliFlags, ParsesTypedValues) {
  CliFlags flags;
  flags.add_int("n", 10, "workers")
      .add_double("rate", 0.5, "learning rate")
      .add_bool("verbose", false, "noise")
      .add_string("scheme", "bcc", "scheme name");
  const char* argv[] = {"prog",          "--n=50",       "--rate", "0.25",
                        "--verbose",     "--scheme=cr"};
  ASSERT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(flags.get_int("n"), 50);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("scheme"), "cr");
}

TEST(CliFlags, DefaultsSurviveWhenUnset) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("n"), 10);
}

TEST(CliFlags, RejectsUnknownFlag) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, RejectsBadValue) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, argv));

  // A number must be the whole value, not a readable prefix of it.
  for (const char* arg : {"--n=50x", "--n=0x10", "--n=1e3"}) {
    CliFlags ints;
    ints.add_int("n", 10, "workers");
    const char* args[] = {"prog", arg};
    EXPECT_FALSE(ints.parse(2, args)) << arg;
    EXPECT_EQ(ints.get_int("n"), 10) << arg;
  }
  for (const char* arg : {"--rate=0.1.2", "--rate=2s"}) {
    CliFlags doubles;
    doubles.add_double("rate", 0.5, "learning rate");
    const char* args[] = {"prog", arg};
    EXPECT_FALSE(doubles.parse(2, args)) << arg;
    EXPECT_EQ(doubles.get_double("rate"), 0.5) << arg;
  }
}

TEST(CliFlags, RejectsMissingValue) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, HelpReturnsFalse) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, BoolExplicitValues) {
  CliFlags flags;
  flags.add_bool("x", true, "x");
  const char* argv[] = {"prog", "--x=false"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(flags.get_bool("x"));
}

TEST(CliFlags, WrongTypeAccessAsserts) {
  CliFlags flags;
  flags.add_int("n", 10, "workers");
  EXPECT_THROW(flags.get_double("n"), AssertionError);
  EXPECT_THROW(flags.get_int("missing"), AssertionError);
}

TEST(CliFlags, UsageListsAllFlags) {
  CliFlags flags;
  flags.add_int("alpha", 1, "first").add_string("beta", "z", "second");
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--beta"), std::string::npos);
  EXPECT_NE(usage.find("second"), std::string::npos);
}


// --- CSV writer -----------------------------------------------------------------

TEST(CsvWriter, PlainFieldsAreUnquoted) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b", "1.5"});
  EXPECT_EQ(os.str(), "a,b,1.5\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriter, QuotesFieldsWithSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("has\nnewline"), "\"has\nnewline\"");
}

TEST(CsvWriter, EmptyRowIsBlankLine) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({});
  EXPECT_EQ(os.str(), "\n");
}

// --- thread pool --------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

// --- timer --------------------------------------------------------------------

TEST(WallTimer, MeasuresNonNegativeMonotonicTime) {
  WallTimer timer;
  const double a = timer.seconds();
  const double b = timer.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  timer.reset();
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), 0.0);
}

// --- registry name diagnostics ----------------------------------------------

TEST(EditDistance, BasicProperties) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("bcc", "bfc"), 1u);       // substitution
  EXPECT_EQ(edit_distance("cr", "cri"), 1u);        // insertion
  EXPECT_EQ(edit_distance("uncoded", "uncode"), 1u);  // deletion
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  // Symmetry.
  EXPECT_EQ(edit_distance("heavy_tail", "heavytail"),
            edit_distance("heavytail", "heavy_tail"));
}

TEST(NearestName, SuggestsOnlyPlausibleTypos) {
  const std::vector<std::string> choices = {"uncoded", "fr", "cr", "bcc",
                                            "simple_random"};
  EXPECT_EQ(nearest_name("bfc", choices), "bcc");
  EXPECT_EQ(nearest_name("uncodedd", choices), "uncoded");
  EXPECT_EQ(nearest_name("simple_randm", choices), "simple_random");
  // Too far from everything: no suggestion.
  EXPECT_EQ(nearest_name("zzz", choices), "");
  EXPECT_EQ(nearest_name("mpi", choices), "");
  // Ties resolve to registration order.
  EXPECT_EQ(nearest_name("br", {"fr", "cr"}), "fr");
}

TEST(UnknownNameMessage, IncludesDidYouMeanWhenClose) {
  const std::vector<std::string> choices = {"shifted_exp", "hetero",
                                            "lossy"};
  const std::string close =
      unknown_name_message("scenario", "shifted_exq", choices);
  EXPECT_NE(close.find("unknown scenario 'shifted_exq'"),
            std::string::npos);
  EXPECT_NE(close.find("did you mean 'shifted_exp'?"), std::string::npos);
  EXPECT_NE(close.find("choices: shifted_exp|hetero|lossy"),
            std::string::npos);

  const std::string far =
      unknown_name_message("scenario", "qqqqqq", choices);
  EXPECT_EQ(far.find("did you mean"), std::string::npos);
  EXPECT_NE(far.find("choices:"), std::string::npos);
}

}  // namespace
}  // namespace coupon
