// Host and build fingerprint printed with every run, so figures from two
// runs are only compared when they came from comparable hosts and builds.

#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Fingerprint {
  int nproc = 0;
  std::string cpu_model;
  uint64_t l3_bytes = 0;  // 0 when the host does not report it
  bool perf_events = false;
  std::string build_type;
  std::string commit;
  uint64_t seed = 0;
};

/// Reads the host from the CPU and the kernel (cpuid, sysconf, one trial
/// perf_event_open); no files are read.
Fingerprint TakeFingerprint(const std::string& commit, uint64_t seed);

/// One line: "fingerprint nproc=4 cpu=... l3=... perf_event=... ...".
std::string FormatFingerprint(const Fingerprint& fp);

/// The build type this binary was compiled as.
const char* BuildType();

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
