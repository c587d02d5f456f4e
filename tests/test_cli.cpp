// Hostile numeric input at the CLI surface: every numeric flag takes one
// strict decimal number. Signs, letters, trailing text and overflow exit 2
// with a message (like an unknown option) instead of silently running
// with a wrapped or zero value; --scale must also be finite and positive,
// and --tolerance finite and non-negative.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

/// Run `mac3d list <args>` (parsing happens before any command runs) and
/// return its exit status.
int mac3d_list(const std::string& args) {
  const std::string command =
      std::string(MAC3D_CLI) + " list " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliNumbers, AcceptsPlainDecimalValues) {
  EXPECT_EQ(mac3d_list("--threads 4 --nodes 2 --jobs 1 --tag-pool 0"), 0);
  EXPECT_EQ(mac3d_list("--seed 18446744073709551615 --sample-every 64 "
                       "--snapshot-every 1024 --watchdog-windows 3 "
                       "--inject-livelock 0"),
            0);
  EXPECT_EQ(mac3d_list("--scale 0.05"), 0);
  EXPECT_EQ(mac3d_list("--scale 2"), 0);
}

TEST(CliNumbers, RejectsBad32BitCounts) {
  for (const char* flag : {"--threads", "--nodes", "--jobs", "--tag-pool"}) {
    for (const char* value :
         {"abc", "-1", "+3", "-3", "4x", "1.5", "", " 7", "4294967296"}) {
      EXPECT_EQ(mac3d_list(std::string(flag) + " '" + value + "'"), 2)
          << flag << " '" << value << "'";
    }
  }
}

TEST(CliNumbers, RejectsBad64BitCycleCounts) {
  for (const char* flag : {"--seed", "--sample-every", "--snapshot-every",
                           "--watchdog-windows", "--inject-livelock"}) {
    for (const char* value :
         {"abc", "-1", "+5", "12cycles", "", "18446744073709551616"}) {
      EXPECT_EQ(mac3d_list(std::string(flag) + " '" + value + "'"), 2)
          << flag << " '" << value << "'";
    }
  }
}

TEST(CliNumbers, RejectsNonFiniteOrNonPositiveScale) {
  for (const char* value :
       {"nan", "inf", "-inf", "0", "-0.5", "0.1x", "abc", "", "1e999"}) {
    EXPECT_EQ(mac3d_list(std::string("--scale '") + value + "'"), 2)
        << "--scale '" << value << "'";
  }
}

/// Run `mac3d <args>`; returns the exit status and leaves stderr in
/// `err`.
int mac3d(const std::string& args, std::string& err) {
  const std::string err_path = ::testing::TempDir() + "cli_stderr.txt";
  const std::string command = std::string(MAC3D_CLI) + " " + args +
                              " >/dev/null 2>'" + err_path + "'";
  const int status = std::system(command.c_str());
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  err = text.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Two one-metric reports 5% apart; returns "OLD NEW" for report-diff.
std::string report_pair() {
  const std::string dir = ::testing::TempDir();
  std::ofstream(dir + "cli_old.json")
      << R"({"schema": "mac3d-run-report/4", "metrics": {"x": 100}})";
  std::ofstream(dir + "cli_new.json")
      << R"({"schema": "mac3d-run-report/4", "metrics": {"x": 105}})";
  return "'" + dir + "cli_old.json' '" + dir + "cli_new.json'";
}

TEST(CliNumbers, ToleranceAcceptsFiniteNonNegativePercentages) {
  const std::string files = report_pair();
  std::string err;
  EXPECT_EQ(mac3d("report-diff " + files + " --tolerance 10", err), 0) << err;
  EXPECT_EQ(mac3d("report-diff " + files + " --tolerance 5.5", err), 0)
      << err;
  // 0 stays legal: it demands exact equality, so the 5% gap fails.
  EXPECT_EQ(mac3d("report-diff " + files + " --tolerance 0", err), 1) << err;
  EXPECT_EQ(mac3d("report-diff " + files + " --tolerance 1", err), 1) << err;
}

TEST(CliNumbers, RejectsBadTolerance) {
  const std::string files = report_pair();
  for (const char* value :
       {"abc", "-1", "-0.5", "nan", "inf", "5x", "", " 5", "1e999"}) {
    const std::string bad = "bad value '" + std::string(value) +
                            "' for --tolerance";
    std::string err;
    EXPECT_EQ(mac3d("report-diff " + files + " --tolerance '" + value + "'",
                    err),
              2)
        << value;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
    // analyze parses its options before it opens any file.
    EXPECT_EQ(mac3d("analyze report.json --snapshots snap.jsonl "
                    "--tolerance '" +
                        std::string(value) + "'",
                    err),
              2)
        << value;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
}

}  // namespace
