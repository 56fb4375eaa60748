// Tests for tools/hdc_traceq — the trace-query tool over Chrome traces and
// hdc-request-trace-v1 exemplar JSONL. Drives the real binary over real serve
// output (the same artifacts CI smoke checks analyze) plus handcrafted files
// to pin the exit-code contract: 0 = pass, 1 = assertion violation or request
// not found, 2 = usage/parse error.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/sim_time.hpp"
#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "runtime/framework.hpp"
#include "runtime/serve.hpp"
#include "test_support.hpp"

namespace {

namespace fs = std::filesystem;
using namespace hdc;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_traceq(const std::string& args) {
  const std::string command = std::string(HDC_TRACEQ_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// The overloaded faulty serve scenario (2x offered load, bounded queue, a
/// detach window): produces shed, degraded and tail-latency exemplars.
runtime::ServeConfig overloaded_faulty_config() {
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x5E44E;
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 16;
  config.online_updates = true;
  config.model_refresh_chunks = 4;
  config.faults.detach_at = {SimDuration::seconds(0.03)};
  config.faults.reattach_after = SimDuration::seconds(0.02);
  config.faults.seed = 7;
  config.admission.offered_load = 2.0;
  config.admission.queue_capacity = 3;
  config.health.probe_interval = SimDuration::millis(30);
  return config;
}

class TraceqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = hdc::test::temp_dir();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const char* name, const std::string& content) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << content;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(TraceqTest, ServeExemplarsPassAssertionAndResolveByRequestId) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = overloaded_faulty_config();
  config.exemplar_path = (dir_ / "exemplars.jsonl").string();
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_FALSE(result.exemplar_records.empty());

  // The full report passes the exactness assertion on real serve output.
  const RunResult report = run_traceq(config.exemplar_path + " --assert-attribution");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("(jsonl format)"), std::string::npos) << report.output;
  EXPECT_NE(report.output.find("attribution exactness"), std::string::npos);
  EXPECT_EQ(report.output.find("VIOLATION"), std::string::npos) << report.output;
  EXPECT_NE(report.output.find("top "), std::string::npos);

  // A retained exemplar id resolves to its full span chain — the contract
  // behind the `exemplar=<id>` annotation on alarm log lines.
  const std::uint64_t id = result.exemplar_records.front().trace.request_id;
  const RunResult chain =
      run_traceq(config.exemplar_path + " --req " + std::to_string(id));
  EXPECT_EQ(chain.exit_code, 0) << chain.output;
  EXPECT_NE(chain.output.find("request " + std::to_string(id) + ":"),
            std::string::npos)
      << chain.output;
  EXPECT_NE(chain.output.find("span chain"), std::string::npos);

  // An id that was never retained is a lookup failure, not a parse error.
  const RunResult missing = run_traceq(config.exemplar_path + " --req 999999");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(TraceqTest, CorruptedAttributionFailsTheAssertion) {
  // Handcrafted record whose stages sum to 0.375, not the recorded 0.5.
  const std::string path = write(
      "bad.jsonl",
      "{\"schema\":\"hdc-request-trace-v1\",\"request_id\":9,\"outcome\":\"served\","
      "\"reason\":\"tail_latency\",\"tier\":0,\"samples\":4,\"faulty\":false,"
      "\"arrival_s\":0,\"end_s\":0.5,\"latency_s\":0.5,"
      "\"attribution\":{\"queue_wait\":0.25,\"device\":0.125},\"spans\":[]}\n");
  const RunResult plain = run_traceq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  EXPECT_NE(plain.output.find("VIOLATION request 9"), std::string::npos);

  const RunResult gated = run_traceq(path + " --assert-attribution");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("FAIL"), std::string::npos);
}

TEST_F(TraceqTest, ChromeTraceReassemblesRequestChains) {
  obs::TraceContext trace;
  runtime::CoDesignFramework framework;
  framework.set_trace(&trace);
  runtime::ServeConfig config = overloaded_faulty_config();
  runtime::serve(framework, config);
  const fs::path path = dir_ / "trace.json";
  {
    std::ofstream out(path);
    trace.write_chrome_trace(out);
  }

  const RunResult report = run_traceq(path.string());
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("(chrome format)"), std::string::npos) << report.output;
  EXPECT_EQ(report.output.find("0 requests"), std::string::npos) << report.output;

  // Chrome span chains are not a latency partition: the assertion is
  // explicitly skipped, never silently passed.
  const RunResult gated = run_traceq(path.string() + " --assert-attribution");
  EXPECT_EQ(gated.exit_code, 0) << gated.output;
  EXPECT_NE(gated.output.find("skipped"), std::string::npos) << gated.output;
}

TEST_F(TraceqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_traceq("--help").exit_code, 0);
  EXPECT_EQ(run_traceq("").exit_code, 2);                       // no input
  EXPECT_EQ(run_traceq("--bogus x.json").exit_code, 2);         // unknown flag
  EXPECT_EQ(run_traceq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.jsonl", "not json at all\n");
  EXPECT_EQ(run_traceq(garbage).exit_code, 2);
  // Valid JSON lines that are not hdc-request-trace-v1 records also fail.
  const std::string wrong = write("wrong.jsonl", "{\"schema\":\"other\"}\n");
  EXPECT_EQ(run_traceq(wrong).exit_code, 2);
}

}  // namespace
