// Tests for the common substrate: RNG, statistics, tables, tolerance
// helpers and the ASCII plotter.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/ascii_plot.hpp"
#include "common/error.hpp"
#include "common/optimize.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tolerance.hpp"

namespace {

using namespace dls::common;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.bits() == b.bits()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  OnlineStats acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 0.25, 0.01);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.log_uniform(0.5, 5.0);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 5.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), dls::PreconditionError);
  EXPECT_THROW(rng.uniform_int(5, 4), dls::PreconditionError);
  EXPECT_THROW(rng.exponential(0.0), dls::PreconditionError);
  EXPECT_THROW(rng.log_uniform(-1.0, 2.0), dls::PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.5), dls::PreconditionError);
}

TEST(OnlineStats, MatchesBatchCountMeanMinMax) {
  Rng rng(31);
  OnlineStats acc;
  double sum = 0.0, lo = 0.0, hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    lo = i == 0 ? x : std::min(lo, x);
    hi = i == 0 ? x : std::max(hi, x);
    sum += x;
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 1000u);
  EXPECT_NEAR(acc.mean(), sum / 1000.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), sum);
  EXPECT_DOUBLE_EQ(acc.min(), lo);
  EXPECT_DOUBLE_EQ(acc.max(), hi);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 12.5), 1.5);
}

TEST(Stats, ArgmaxFindsFirstMaximum) {
  const std::vector<double> xs = {1, 5, 2, 5, 3};
  EXPECT_EQ(argmax(xs), 1u);
}

TEST(Table, RendersAlignedColumns) {
  Table table({{"name", Align::kLeft}, {"value", Align::kRight}});
  table.add_row({"alpha", Cell(0.5, 3)});
  table.add_row({"beta", 42});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("0.500"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table table({{"a"}, {"b"}});
  table.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table table({{"a"}, {"b"}});
  EXPECT_THROW(table.add_row({"only-one"}), dls::PreconditionError);
}

TEST(Tolerance, RelativeErrorScalesProperly) {
  EXPECT_DOUBLE_EQ(relative_error(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_error(100.0, 101.0), 1.0 / 101.0, 1e-12);
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_le(1.0000000001, 1.0));
  EXPECT_TRUE(approx_ge(0.9999999999, 1.0));
}

TEST(Golden, FindsQuadraticMinimum) {
  const auto result = golden_minimize(
      [](double x) { return (x - 1.7) * (x - 1.7) + 3.0; }, -10.0, 10.0);
  EXPECT_NEAR(result.x, 1.7, 1e-7);
  EXPECT_NEAR(result.value, 3.0, 1e-12);
}

TEST(Golden, HandlesBoundaryMinimum) {
  const auto result =
      golden_minimize([](double x) { return x; }, 2.0, 5.0);
  EXPECT_NEAR(result.x, 2.0, 1e-7);
}

TEST(Golden, ValidatesArguments) {
  EXPECT_THROW(golden_minimize([](double x) { return x; }, 5.0, 2.0),
               dls::PreconditionError);
}

TEST(AsciiPlot, RendersWithoutCrashing) {
  Series s;
  s.name = "demo";
  for (int i = 0; i < 20; ++i) {
    s.xs.push_back(i);
    s.ys.push_back(std::sin(0.3 * i));
  }
  std::ostringstream os;
  plot(os, s, PlotOptions{.width = 40, .height = 10, .title = "t"});
  EXPECT_NE(os.str().find('*'), std::string::npos);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
}

TEST(AsciiPlot, HandlesDegenerateData) {
  Series s;
  s.xs = {1.0};
  s.ys = {2.0};
  std::ostringstream os;
  plot(os, s, PlotOptions{.width = 30, .height = 6});
  EXPECT_FALSE(os.str().empty());

  Series empty;
  std::ostringstream os2;
  plot(os2, empty, PlotOptions{.width = 30, .height = 6});
  EXPECT_NE(os2.str().find("no finite data"), std::string::npos);
}

}  // namespace
