#pragma once

// Shared helpers for the gtest suites.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace hdc::test {

/// A scratch directory private to this test process and the running test:
/// `<system temp>/hdc_test_<pid>/<Suite>.<Test>` (just `<Suite>` when called
/// from SetUpTestSuite), created on first use.
///
/// CTest runs every discovered case as its own process, and `ctest -j` runs
/// them concurrently, so a fixed path shared by two processes races: one
/// process's cleanup deletes the other's files mid-test. The pid separates
/// processes; the test name separates the cases of one process when a suite
/// binary runs directly. The whole per-process root is removed at exit.
inline std::filesystem::path temp_dir() {
  namespace fs = std::filesystem;
  struct Root {
    fs::path path = fs::temp_directory_path() / ("hdc_test_" + std::to_string(::getpid()));
    ~Root() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  };
  static const Root root;

  const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
  std::string name = "process";
  if (const ::testing::TestInfo* info = unit->current_test_info()) {
    name = std::string(info->test_suite_name()) + "." + info->name();
  } else if (const ::testing::TestSuite* suite = unit->current_test_suite()) {
    name = suite->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const fs::path dir = root.path / name;
  fs::create_directories(dir);
  return dir;
}

}  // namespace hdc::test
