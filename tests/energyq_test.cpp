// Tests for tools/hdc_energyq — the energy-ledger inspector over monitor
// snapshots carrying an `energy` section, fleet snapshots with per-tenant
// ledgers, hdc-energystats-v1 wrappers and raw HDSV serve checkpoints. Drives
// the real binary over real serve artifacts (the same files CI's
// energy-conservation gate checks) plus handcrafted violations to pin the
// exit-code contract: 0 = pass, 1 = conservation violation or tenant not
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

RunResult run_energyq(const std::string& args) {
  const std::string command = std::string(HDC_ENERGYQ_PATH) + " " + args + " 2>&1";
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

class EnergyqTest : public ::testing::Test {
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

TEST_F(EnergyqTest, ServeSnapshotPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.snapshot_dir = dir_.string();
  runtime::serve(framework, config);

  const std::string snapshot = (dir_ / "monitor_snapshot_final.json").string();
  const RunResult report = run_energyq(snapshot + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("energy:"), std::string::npos);
  EXPECT_NE(report.output.find("components:"), std::string::npos);
  EXPECT_NE(report.output.find("mxu_active"), std::string::npos);
  EXPECT_NE(report.output.find("J/inference"), std::string::npos);
  EXPECT_NE(report.output.find("watts ewma:"), std::string::npos);
}

TEST_F(EnergyqTest, CheckpointIsSniffedByMagicAndPassesConservation) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.checkpoint_path = (dir_ / "serve.ckpt").string();
  config.checkpoint_every_chunks = 3;
  const runtime::ServeResult result = runtime::serve(framework, config);
  ASSERT_GT(result.checkpoints_written, 0U);

  const RunResult report = run_energyq(config.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("conservation: PASS"), std::string::npos)
      << report.output;

  // A resumed checkpoint passes the same gate — the CI resume artifact check.
  runtime::ServeConfig resumed = serve_config();
  resumed.checkpoint_path = (dir_ / "resumed.ckpt").string();
  resumed.checkpoint_every_chunks = 3;
  resumed.resume_from = (dir_ / "serve.ckpt").string();
  runtime::serve(framework, resumed);
  const RunResult resumed_report =
      run_energyq(resumed.checkpoint_path + " --assert-conservation");
  EXPECT_EQ(resumed_report.exit_code, 0) << resumed_report.output;
}

TEST_F(EnergyqTest, FleetSnapshotChecksTenantsAndSelectsByIndex) {
  const runtime::CoDesignFramework framework;
  runtime::ServeConfig config = serve_config();
  config.serve_chunks = 16;
  config.admission.offered_load = 2.0;
  config.fleet.num_devices = 2;
  config.fleet.num_tenants = 2;
  config.snapshot_dir = dir_.string();
  runtime::serve_fleet(framework, config);

  const std::string snapshot = (dir_ / "fleet_snapshot_final.json").string();
  const RunResult aggregate = run_energyq(snapshot + " --assert-conservation");
  EXPECT_EQ(aggregate.exit_code, 0) << aggregate.output;
  EXPECT_NE(aggregate.output.find("conservation: PASS"), std::string::npos)
      << aggregate.output;
  EXPECT_NE(aggregate.output.find("tenants:"), std::string::npos) << aggregate.output;

  const RunResult tenant = run_energyq(snapshot + " --tenant 1");
  EXPECT_EQ(tenant.exit_code, 0) << tenant.output;
  EXPECT_NE(tenant.output.find("tenant 1:"), std::string::npos) << tenant.output;

  // A tenant the fleet never had is a lookup failure, not a parse error.
  const RunResult missing = run_energyq(snapshot + " --tenant 99");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST_F(EnergyqTest, HandcraftedViolationFailsTheGate) {
  // Three distinct violations: the stage ledger sums to 90 (not the claimed
  // 100), the component ledger to 110, and the outcome split to 95.
  const std::string path = write(
      "bad.json",
      "{\"schema\":\"hdc-monitor-v1\",\"t_s\":1.0,\"lifetime\":{\"samples\":64},"
      "\"energy\":{\"schema\":\"hdc-energy-v1\",\"total_pj\":100,"
      "\"total_joules\":1e-10,"
      "\"profile\":{\"idle_watts\":4.5,\"mxu_active_watts\":6.5,"
      "\"link_watts\":6.5,\"sram_write_watts\":6.5,\"host_busy_watts\":15.0,"
      "\"backoff_watts\":6.5},"
      "\"stages\":{\"queue_wait\":90},"
      "\"components\":{\"mxu_active\":110},"
      "\"outcomes\":{\"served_pj\":95,\"shed_pj\":0,\"expired_pj\":0,"
      "\"degraded_pj\":0},"
      "\"requests\":2,\"samples_served\":64,"
      "\"window\":{\"pj\":100,\"samples\":64,\"joules_per_inference\":0},"
      "\"watts_ewma\":0,"
      "\"alarms\":{\"energy_budget\":{\"firing\":false,\"fired_total\":0,"
      "\"value\":0,\"threshold\":0,\"detail\":\"\"}},"
      "\"quarantined\":false,\"suppressed_alarms_total\":0}}");
  const RunResult plain = run_energyq(path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;  // report-only without the flag
  const RunResult gated = run_energyq(path + " --assert-conservation");
  EXPECT_EQ(gated.exit_code, 1) << gated.output;
  EXPECT_NE(gated.output.find("conservation: FAIL"), std::string::npos) << gated.output;
  EXPECT_NE(gated.output.find("VIOLATION"), std::string::npos);
}

TEST_F(EnergyqTest, UsageAndParseErrorsExitTwo) {
  EXPECT_EQ(run_energyq("--help").exit_code, 0);
  EXPECT_EQ(run_energyq("").exit_code, 2);                // no input
  EXPECT_EQ(run_energyq("--bogus x.json").exit_code, 2);  // unknown flag
  EXPECT_EQ(run_energyq((dir_ / "absent.json").string()).exit_code, 2);
  const std::string garbage = write("garbage.json", "not json at all\n");
  EXPECT_EQ(run_energyq(garbage).exit_code, 2);
  // Valid hdc-monitor-v1 JSON without an energy section is actionable
  // advice, not a crash.
  const std::string no_energy =
      write("no_energy.json", "{\"schema\":\"hdc-monitor-v1\",\"t_s\":0}");
  const RunResult missing = run_energyq(no_energy);
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("no energy section"), std::string::npos);
}

}  // namespace
