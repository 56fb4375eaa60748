#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "data/csv.hpp"
#include "test_support.hpp"

namespace hdc::data {
namespace {

TEST(CsvTest, ParsesBasicTable) {
  const std::string text = "1.0,2.0,cat\n3.5,-1.25,dog\n0.0,0.5,cat\n";
  const Dataset ds = parse_csv(text);
  EXPECT_EQ(ds.num_samples(), 3U);
  EXPECT_EQ(ds.num_features(), 2U);
  EXPECT_EQ(ds.num_classes, 2U);
  EXPECT_FLOAT_EQ(ds.features.at(1, 1), -1.25F);
  EXPECT_EQ(ds.labels[0], 0U);  // "cat" seen first
  EXPECT_EQ(ds.labels[1], 1U);  // "dog"
  EXPECT_EQ(ds.labels[2], 0U);
}

TEST(CsvTest, HeaderSkipped) {
  const std::string text = "f1,f2,label\n1,2,0\n3,4,1\n";
  CsvOptions options;
  options.has_header = true;
  const Dataset ds = parse_csv(text, options);
  EXPECT_EQ(ds.num_samples(), 2U);
  EXPECT_FLOAT_EQ(ds.features.at(0, 0), 1.0F);
}

TEST(CsvTest, LabelColumnFirst) {
  const std::string text = "a,1,2\nb,3,4\n";
  CsvOptions options;
  options.label_column = 0;
  const Dataset ds = parse_csv(text, options);
  EXPECT_EQ(ds.num_features(), 2U);
  EXPECT_FLOAT_EQ(ds.features.at(1, 0), 3.0F);
  EXPECT_EQ(ds.labels[1], 1U);
}

TEST(CsvTest, SemicolonDelimiter) {
  const std::string text = "1;2;x\n3;4;y\n";
  CsvOptions options;
  options.delimiter = ';';
  const Dataset ds = parse_csv(text, options);
  EXPECT_EQ(ds.num_features(), 2U);
  EXPECT_EQ(ds.num_classes, 2U);
}

TEST(CsvTest, WindowsLineEndingsAndWhitespaceTolerated) {
  const std::string text = " 1.0 ,\t2.0 , a \r\n3.0,4.0,b\r\n";
  const Dataset ds = parse_csv(text);
  EXPECT_EQ(ds.num_samples(), 2U);
  EXPECT_FLOAT_EQ(ds.features.at(0, 1), 2.0F);
}

TEST(CsvTest, BlankLinesIgnored) {
  const std::string text = "1,2,a\n\n3,4,b\n\n";
  const Dataset ds = parse_csv(text);
  EXPECT_EQ(ds.num_samples(), 2U);
}

TEST(CsvTest, SparseIntegerLabelsDensified) {
  const std::string text = "1,2,10\n3,4,99\n5,6,10\n7,8,42\n";
  const Dataset ds = parse_csv(text);
  EXPECT_EQ(ds.num_classes, 3U);
  EXPECT_EQ(ds.labels[0], 0U);
  EXPECT_EQ(ds.labels[1], 1U);
  EXPECT_EQ(ds.labels[2], 0U);
  EXPECT_EQ(ds.labels[3], 2U);
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_THROW(parse_csv("1,2,a\n3,b\n"), Error);
}

TEST(CsvTest, NonNumericFeatureRejected) {
  EXPECT_THROW(parse_csv("1,oops,a\n2,3,b\n"), Error);
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_THROW(parse_csv(""), Error);
  EXPECT_THROW(parse_csv("\n\n"), Error);
}

TEST(CsvTest, SingleClassRejected) {
  EXPECT_THROW(parse_csv("1,2,same\n3,4,same\n"), Error);
}

TEST(CsvTest, LabelColumnOutOfRangeRejected) {
  CsvOptions options;
  options.label_column = 9;
  EXPECT_THROW(parse_csv("1,2,a\n3,4,b\n", options), Error);
}

TEST(CsvTest, LoadsFromFile) {
  const auto path = (hdc::test::temp_dir() / "hdc_csv_test.csv").string();
  {
    std::ofstream out(path);
    out << "0.1,0.9,up\n0.8,0.2,down\n0.15,0.85,up\n";
  }
  const Dataset ds = load_csv(path);
  EXPECT_EQ(ds.num_samples(), 3U);
  EXPECT_EQ(ds.name, "hdc_csv_test.csv");
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(load_csv("/definitely/not/here.csv"), Error);
}

}  // namespace
}  // namespace hdc::data
