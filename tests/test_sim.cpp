// Unit tests: report rendering and the experiment harness.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"

namespace mac3d {
namespace {

// ------------------------------------------------------------------ Table
TEST(Table, RendersAlignedAscii) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_NE(text.find("+-"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table table({"x", "y"});
  table.add_row({"1", "2"});
  EXPECT_EQ(table.to_csv(), "x,y\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5), "50.00%");
  EXPECT_EQ(Table::pct(0.12345, 1), "12.3%");
  EXPECT_EQ(Table::count(0), "0");
  EXPECT_EQ(Table::count(1234567), "1,234,567");
  EXPECT_EQ(Table::bytes(512), "512 B");
  EXPECT_EQ(Table::bytes(2048), "2.00 KB");
  EXPECT_EQ(Table::bytes(3ull << 30), "3.00 GB");
}

// ------------------------------------------------------------- experiment
TEST(Experiment, SuiteRunsSelectedWorkloads) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"sg", "sort"};
  const auto runs = run_suite(options);
  ASSERT_EQ(runs.size(), 2u);
  // Registry order is preserved (sg before sort).
  EXPECT_EQ(runs[0].name, "sg");
  EXPECT_EQ(runs[1].name, "sort");
  for (const WorkloadRun& run : runs) {
    EXPECT_GT(run.trace.records, 0u);
    EXPECT_GT(run.trace.instructions, run.trace.records);
    EXPECT_GT(run.raw.packets, 0u);
    EXPECT_GT(run.mac.packets, 0u);
    EXPECT_LE(run.mac.packets, run.raw.packets);
    EXPECT_GT(run.trace.requests_per_instruction, 0.0);
    EXPECT_GT(run.trace.mem_access_rate, 0.0);
    EXPECT_LE(run.trace.mem_access_rate, 1.0);
  }
}

TEST(Experiment, MshrPathOptIn) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"sg"};
  options.run_mshr = true;
  const auto runs = run_suite(options);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].mshr.path, "mshr");
  EXPECT_GT(runs[0].mshr.packets, 0u);
}

/// The ConfigError message `read` throws, or "" when it returns.
template <typename Read>
std::string env_error(Read read) {
  try {
    static_cast<void>(read());
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(Experiment, EnvScaleParsesAndDefaults) {
  ::unsetenv("MAC3D_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  ::setenv("MAC3D_SCALE", "", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  ::setenv("MAC3D_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 0.25);
  // Anything but one finite positive number is an error naming the
  // variable, never a silent 1.0 or an infinite scale.
  for (const char* bad : {"garbage", "inf", "nan", "-1", "0", "0.5x", "1e999",
                          " 1", "+1"}) {
    ::setenv("MAC3D_SCALE", bad, 1);
    EXPECT_NE(env_error(env_scale).find("MAC3D_SCALE"), std::string::npos)
        << bad;
  }
  ::unsetenv("MAC3D_SCALE");
}

TEST(Experiment, EnvThreadsParsesAndDefaults) {
  ::unsetenv("MAC3D_THREADS");
  EXPECT_EQ(env_threads(8), 8u);
  ::setenv("MAC3D_THREADS", "4", 1);
  EXPECT_EQ(env_threads(8), 4u);
  for (const char* bad : {"-1", "0", "4.5", "abc", "4096x", "4294967296"}) {
    ::setenv("MAC3D_THREADS", bad, 1);
    EXPECT_NE(env_error([] { return env_threads(8); }).find("MAC3D_THREADS"),
              std::string::npos)
        << bad;
  }
  ::unsetenv("MAC3D_THREADS");
}

TEST(Experiment, EnvJobsParsesAndDefaults) {
  ::unsetenv("MAC3D_JOBS");
  EXPECT_EQ(env_jobs(1), 1u);
  ::setenv("MAC3D_JOBS", "3", 1);
  EXPECT_EQ(env_jobs(1), 3u);
  for (const char* bad : {"-2", "0", "two", "3 "}) {
    ::setenv("MAC3D_JOBS", bad, 1);
    EXPECT_NE(env_error([] { return env_jobs(1); }).find("MAC3D_JOBS"),
              std::string::npos)
        << bad;
  }
  ::unsetenv("MAC3D_JOBS");
}

TEST(Experiment, DefaultOptionsAreValid) {
  ::unsetenv("MAC3D_CONFIG");
  const SuiteOptions options = default_suite_options();
  EXPECT_NO_THROW(options.config.validate());
  EXPECT_GT(options.threads, 0u);
  EXPECT_GT(options.scale, 0.0);
}

TEST(Experiment, ConfigEnvOverrideApplies) {
  ::setenv("MAC3D_CONFIG", "arq_entries=64", 1);
  const SuiteOptions options = default_suite_options();
  EXPECT_EQ(options.config.arq_entries, 64u);
  ::unsetenv("MAC3D_CONFIG");
}

TEST(Experiment, ResultCollectExportsAllMetrics) {
  SuiteOptions options;
  options.scale = 0.05;
  options.threads = 2;
  options.only = {"mg"};
  const auto runs = run_suite(options);
  StatSet stats;
  runs[0].mac.collect(stats, "mac");
  EXPECT_TRUE(stats.contains("mac.packets"));
  EXPECT_TRUE(stats.contains("mac.coalescing_efficiency"));
  EXPECT_TRUE(stats.contains("mac.bandwidth_efficiency"));
  EXPECT_TRUE(stats.contains("mac.makespan_cycles"));
  EXPECT_GT(stats.get("mac.packets"), 0.0);
}

}  // namespace
}  // namespace mac3d
