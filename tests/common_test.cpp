#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "test_support.hpp"

namespace hdc {
namespace {

// ---------------------------------------------------------------- Error ----

TEST(ErrorTest, CarriesMessage) {
  try {
    throw Error("boom");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(ErrorTest, CarriesSourceLocation) {
  try {
    throw Error("x");
  } catch (const Error& e) {
    EXPECT_NE(e.location().find("common_test.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, CheckMacroThrowsOnFalse) {
  EXPECT_THROW(HDC_CHECK(1 == 2, "numbers disagree"), Error);
}

TEST(ErrorTest, CheckMacroPassesOnTrue) {
  EXPECT_NO_THROW(HDC_CHECK(1 == 1, "fine"));
}

TEST(ErrorTest, CheckMessageIncludesExpression) {
  try {
    HDC_CHECK(false, "context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

// ------------------------------------------------------------------ Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.5F, 4.0F);
    EXPECT_GE(x, -2.5F);
    EXPECT_LT(x, 4.0F);
  }
}

TEST(RngTest, UniformRejectsReversedBounds) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform(1.0F, 0.0F), Error);
}

TEST(RngTest, NextBelowStaysBelowBound) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17U);
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0U);
  }
}

TEST(RngTest, NextBelowRejectsZeroBound) {
  Rng rng(11);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(13);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++hits[rng.next_below(8)];
  }
  for (const int h : hits) {
    EXPECT_GT(h, 700);  // roughly uniform (expected 1000 each)
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.gaussian(5.0F, 0.5F);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(RngTest, FillGaussianFillsAll) {
  Rng rng(21);
  std::vector<float> buf(1000, -999.0F);
  rng.fill_gaussian(buf.data(), buf.size());
  int unchanged = 0;
  for (const float x : buf) {
    unchanged += x == -999.0F ? 1 : 0;
  }
  EXPECT_EQ(unchanged, 0);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(100, 40);
  ASSERT_EQ(sample.size(), 40U);
  std::vector<bool> seen(100, false);
  for (const auto idx : sample) {
    ASSERT_LT(idx, 100U);
    EXPECT_FALSE(seen[idx]) << "duplicate index " << idx;
    seen[idx] = true;
  }
}

TEST(RngTest, SampleWithoutReplacementFullPopulationIsPermutation) {
  Rng rng(25);
  auto sample = rng.sample_without_replacement(50, 50);
  std::sort(sample.begin(), sample.end());
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sample[i], i);
  }
}

TEST(RngTest, SampleWithoutReplacementRejectsOversizedRequest) {
  Rng rng(25);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(RngTest, SampleWithReplacementInRange) {
  Rng rng(27);
  for (const auto idx : rng.sample_with_replacement(10, 500)) {
    EXPECT_LT(idx, 10U);
  }
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += parent.next_u64() == child.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- Crc32 ----

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926U);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0U); }

TEST(Crc32Test, SingleBitFlipChangesChecksum) {
  std::vector<std::uint8_t> buf(64, 0xAB);
  const std::uint32_t before = crc32(buf.data(), buf.size());
  buf[17] ^= 0x01;
  EXPECT_NE(crc32(buf.data(), buf.size()), before);
}

TEST(Crc32Test, DeterministicAcrossCalls) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  EXPECT_EQ(crc32(buf.data(), buf.size()), crc32(buf.data(), buf.size()));
}

// --------------------------------------------------------------- ByteIo ----

TEST(ByteIoTest, RoundTripPrimitives) {
  ByteWriter writer;
  writer.write<std::uint32_t>(0xDEADBEEF);
  writer.write<float>(3.25F);
  writer.write<std::int8_t>(-5);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read<std::uint32_t>(), 0xDEADBEEFU);
  EXPECT_EQ(reader.read<float>(), 3.25F);
  EXPECT_EQ(reader.read<std::int8_t>(), -5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteIoTest, RoundTripString) {
  ByteWriter writer;
  writer.write_string("hyperdimensional");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_string(), "hyperdimensional");
}

TEST(ByteIoTest, RoundTripEmptyString) {
  ByteWriter writer;
  writer.write_string("");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_string(), "");
}

TEST(ByteIoTest, RoundTripVector) {
  ByteWriter writer;
  writer.write_vector(std::vector<std::int32_t>{1, -2, 3, -4});
  ByteReader reader(writer.bytes());
  const auto out = reader.read_vector<std::int32_t>();
  EXPECT_EQ(out, (std::vector<std::int32_t>{1, -2, 3, -4}));
}

TEST(ByteIoTest, RoundTripEmptyVectorAtEndOfBuffer) {
  ByteWriter writer;
  writer.write_vector(std::vector<std::int32_t>{});
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.read_vector<std::int32_t>().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteIoTest, TruncatedReadThrows) {
  ByteWriter writer;
  writer.write<std::uint16_t>(7);
  ByteReader reader(writer.bytes());
  EXPECT_THROW(reader.read<std::uint64_t>(), Error);
}

TEST(ByteIoTest, OversizedStringLengthRejected) {
  ByteWriter writer;
  writer.write<std::uint32_t>(0xFFFFFFFF);  // absurd length prefix
  ByteReader reader(writer.bytes());
  EXPECT_THROW(reader.read_string(), Error);
}

TEST(ByteIoTest, SkipAdvancesCursor) {
  ByteWriter writer;
  writer.write<std::uint32_t>(1);
  writer.write<std::uint32_t>(2);
  ByteReader reader(writer.bytes());
  reader.skip(4);
  EXPECT_EQ(reader.read<std::uint32_t>(), 2U);
}

TEST(ByteIoTest, SkipBeyondEndThrows) {
  ByteWriter writer;
  writer.write<std::uint8_t>(1);
  ByteReader reader(writer.bytes());
  EXPECT_THROW(reader.skip(2), Error);
}

TEST(ByteIoTest, PatchU32Overwrites) {
  ByteWriter writer;
  writer.write<std::uint32_t>(0);
  writer.write<std::uint32_t>(42);
  writer.patch_u32(0, 99);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read<std::uint32_t>(), 99U);
  EXPECT_EQ(reader.read<std::uint32_t>(), 42U);
}

TEST(ByteIoTest, FileRoundTrip) {
  const auto path =
      (hdc::test::temp_dir() / "hdc_byteio_test.bin").string();
  std::vector<std::uint8_t> payload{10, 20, 30, 40};
  write_file(path, payload);
  EXPECT_EQ(read_file(path), payload);
  std::filesystem::remove(path);
}

TEST(ByteIoTest, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/missing.bin"), Error);
}

// -------------------------------------------------------------- SimTime ----

TEST(SimTimeTest, UnitConstructorsAgree) {
  EXPECT_DOUBLE_EQ(SimDuration::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimDuration::micros(250).to_millis(), 0.25);
  EXPECT_DOUBLE_EQ(SimDuration::nanos(1000).to_micros(), 1.0);
}

TEST(SimTimeTest, CyclesAtFrequency) {
  EXPECT_DOUBLE_EQ(SimDuration::cycles(480, 480e6).to_micros(), 1.0);
}

TEST(SimTimeTest, CyclesRejectsNonPositiveFrequency) {
  EXPECT_THROW(SimDuration::cycles(1, 0.0), Error);
}

TEST(SimTimeTest, Arithmetic) {
  const auto a = SimDuration::millis(2);
  const auto b = SimDuration::millis(3);
  EXPECT_DOUBLE_EQ((a + b).to_millis(), 5.0);
  EXPECT_DOUBLE_EQ((b - a).to_millis(), 1.0);
  EXPECT_DOUBLE_EQ((a * 4).to_millis(), 8.0);
  EXPECT_DOUBLE_EQ(b / a, 1.5);
}

TEST(SimTimeTest, Comparison) {
  EXPECT_LT(SimDuration::micros(1), SimDuration::millis(1));
  EXPECT_EQ(SimDuration::millis(1), SimDuration::micros(1000));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimDuration::seconds(2.5).to_string(), "2.500 s");
  EXPECT_EQ(SimDuration::millis(3.25).to_string(), "3.250 ms");
  EXPECT_EQ(SimDuration::micros(12).to_string(), "12.000 us");
}

// -------------------------------------------------------------- Logging ----

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel before = log::level();
  log::set_level(LogLevel::kDebug);
  EXPECT_EQ(log::level(), LogLevel::kDebug);
  log::set_level(before);
}

TEST(LoggingTest, EmitBelowLevelIsSilent) {
  const LogLevel before = log::level();
  log::set_level(LogLevel::kOff);
  EXPECT_NO_THROW(HDC_LOG_ERROR << "suppressed " << 42);
  log::set_level(before);
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Opens a temp JSONL sink for one test and guarantees detach + cleanup.
class JsonSinkScope {
 public:
  explicit JsonSinkScope(const char* name)
      : path_(hdc::test::temp_dir() / name), level_(log::level()) {
    log::set_json_sink(path_.string());
  }
  ~JsonSinkScope() {
    log::close_json_sink();
    log::set_time_provider(nullptr);
    log::set_level(level_);
    std::filesystem::remove(path_);
  }
  std::string contents() const { return read_file(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  LogLevel level_;
};

}  // namespace

TEST(LoggingTest, JsonSinkWritesOneObjectPerLine) {
  JsonSinkScope sink("hdc_log_sink_basic.jsonl");
  log::set_level(LogLevel::kWarning);
  HDC_LOG_WARN << "first " << 1;
  HDC_LOG_ERROR << "second";
  const std::string text = sink.contents();
  EXPECT_NE(text.find("{\"t_s\":0,\"level\":\"WARN\",\"message\":\"first 1\"}\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"level\":\"ERROR\",\"message\":\"second\"}\n"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(LoggingTest, JsonSinkHonoursLevelFilter) {
  JsonSinkScope sink("hdc_log_sink_filter.jsonl");
  log::set_level(LogLevel::kError);
  HDC_LOG_WARN << "filtered out";
  HDC_LOG_ERROR << "kept";
  const std::string text = sink.contents();
  EXPECT_EQ(text.find("filtered out"), std::string::npos);
  EXPECT_NE(text.find("kept"), std::string::npos);
}

TEST(LoggingTest, JsonSinkEscapesMessages) {
  JsonSinkScope sink("hdc_log_sink_escape.jsonl");
  log::set_level(LogLevel::kWarning);
  HDC_LOG_WARN << "quote \" backslash \\ newline \n tab \t done";
  const std::string text = sink.contents();
  EXPECT_NE(text.find("quote \\\" backslash \\\\ newline \\n tab \\t done"),
            std::string::npos)
      << text;
  // Exactly one physical line despite the embedded newline.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(LoggingTest, JsonSinkUsesSimulatedTimeProvider) {
  JsonSinkScope sink("hdc_log_sink_time.jsonl");
  log::set_level(LogLevel::kWarning);
  double clock = 0.125;
  log::set_time_provider([&clock] { return clock; });
  HDC_LOG_WARN << "at eighth";
  clock = 2.5;
  HDC_LOG_WARN << "later";
  const std::string text = sink.contents();
  EXPECT_NE(text.find("{\"t_s\":0.125,"), std::string::npos) << text;
  EXPECT_NE(text.find("{\"t_s\":2.5,"), std::string::npos) << text;
}

TEST(LoggingTest, JsonSinkDetachStopsWriting) {
  const auto path = hdc::test::temp_dir() / "hdc_log_sink_detach.jsonl";
  const LogLevel before = log::level();
  log::set_level(LogLevel::kWarning);
  log::set_json_sink(path.string());
  EXPECT_TRUE(log::json_sink_active());
  HDC_LOG_WARN << "captured";
  log::close_json_sink();
  EXPECT_FALSE(log::json_sink_active());
  HDC_LOG_WARN << "dropped";
  const std::string text = read_file(path);
  EXPECT_NE(text.find("captured"), std::string::npos);
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  log::set_level(before);
  std::filesystem::remove(path);
}

TEST(LoggingTest, JsonSinkUnwritablePathThrows) {
  EXPECT_THROW(log::set_json_sink("/nonexistent-dir/log.jsonl"), Error);
  EXPECT_FALSE(log::json_sink_active());
}

}  // namespace
}  // namespace hdc
