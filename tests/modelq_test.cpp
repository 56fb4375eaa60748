// Tests for tools/hdc_modelq — the model-quality inspector over monitor
// snapshots, fleet snapshots, hdc-modelstats-v1 wrappers and raw HDSV serve
// checkpoints. Drives the real binary over real serve artifacts (the same
// files CI's conservation gates check) plus handcrafted violations to pin
// the exit-code contract: 0 = pass, 1 = conservation violation or tenant not
// found, 2 = usage/parse error.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/synthetic.hpp"
#include "runtime/framework.hpp"
#include "runtime/router.hpp"
#include "runtime/serve.hpp"
#include "test_support.hpp"

namespace {

namespace fs = std::filesystem;
using namespace hdc;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_modelq(const std::string& args) {
  const std::string command = std::string(HDC_MODELQ_PATH) + " " + args + " 2>&1";
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

runtime::ServeConfig serve_config() {
  runtime::ServeConfig config;
  config.stream.spec = data::paper_dataset("PAMAP2");
  config.stream.spec.seed = 0x5E44E;
  config.stream.chunk_size = 48;
  config.learner.dim = 256;
  config.learner.seed = 11;
  config.warmup_chunks = 2;
  config.serve_chunks = 6;
  return config;
}

class ModelqTest : public ::testing::Test {
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

TEST_F(ModelqTest, ServeSnapshotPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.snapshot_dir = dir_.string();
  runtime::serve(framework, config);

  const std::string snapshot = (dir_ / "monitor_snapshot_final.json").string();
  const RunResult report = run_modelq(snapshot + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("confusion (rows = true label):"), std::string::npos);
  EXPECT_NE(report.output.find("calibration: ECE"), std::string::npos);
  EXPECT_NE(report.output.find("class-vector health:"), std::string::npos);
  EXPECT_NE(report.output.find("bottom dimensions"), std::string::npos);
}

TEST_F(ModelqTest, CheckpointIsSniffedByMagicAndPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.checkpoint_path = (dir_ / "serve.ckpt").string();
  config.checkpoint_every_chunks = 3;
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_GT(result.checkpoints_written, 0U);

  const RunResult report = run_modelq(config.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("model (checkpoint):"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos);
}

TEST_F(ModelqTest, FleetSnapshotChecksTenantsAndSelectsByIndex) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.admission.offered_load = 2.0;
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 2;
  config.snapshot_dir = dir_.string();
  serve_fleet(framework, config);

  const std::string snapshot = (dir_ / "fleet_snapshot_final.json").string();
  const RunResult aggregate = run_modelq(snapshot + " --assert-conservation");
  EXPECT_EQ(aggregate.exit_code, 0) << aggregate.output;
  EXPECT_NE(aggregate.output.find("conservation: PASS"), std::string::npos)
      << aggregate.output;

  const RunResult tenant = run_modelq(snapshot + " --tenant 1");
  EXPECT_EQ(tenant.exit_code, 0) << tenant.output;
  EXPECT_NE(tenant.output.find("tenant 1:"), std::string::npos) << tenant.output;

  // A tenant the fleet never had is a lookup failure, not a parse error.
  const RunResult missing = run_modelq(snapshot + " --tenant 99");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(ModelqTest, HandcraftedViolationFailsTheGate) {
  // Row 0 sums to 3 but class_served says 4, and the calibration bins only
  // cover 3 of the 4 claimed samples: two distinct violations.
  const std::string path = write(
      "bad.json",
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.0,\"lifetime\":{\"samples\":4},"
      "\"model\":{\"samples\":4,\"classes\":2,\"dim\":0,"
      "\"confusion\":[[2,1],[0,0]],\"class_served\":[4,0],"
      "\"window\":{\"samples\":3,\"accuracy\":0.5,\"confusion\":[[2,1],[0,0]]},"
      "\"calibration\":{\"ece\":0,\"bins\":[{\"count\":3,\"correct\":2,"
      "\"mean_confidence\":0.5}]}}}");
  const RunResult plain = run_modelq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  const RunResult gated = run_modelq(path + " --assert-conservation");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("conservation: FAIL"), std::string::npos) << gated.output;
  EXPECT_NE(gated.output.find("VIOLATION"), std::string::npos);
  EXPECT_NE(gated.output.find("confusion row 0"), std::string::npos);
  EXPECT_NE(gated.output.find("calibration bins"), std::string::npos);
}

TEST_F(ModelqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_modelq("--help").exit_code, 0);
  EXPECT_EQ(run_modelq("").exit_code, 2);                // no input
  EXPECT_EQ(run_modelq("--bogus x.json").exit_code, 2);  // unknown flag
  EXPECT_EQ(run_modelq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.json", "not json at all\n");
  EXPECT_EQ(run_modelq(garbage).exit_code, 2);
  // Valid hdc-monitor-v1 JSON without a model section is actionable advice,
  // not a crash.
  const std::string no_model =
      write("no_model.json", "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0}");
  const RunResult missing = run_modelq(no_model);
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("no model section"), std::string::npos);
}

}  // namespace
