// Hostile numeric input at the CLI surface: every numeric flag takes one
// strict decimal number. Signs, letters, trailing text and overflow exit 2
// with a message (like an unknown option) instead of silently running
// with a wrapped or zero value; --scale must also be finite and positive.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
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

}  // namespace
