#include "fingerprint.h"

#include <sched.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/perf_counters.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + leaf * 16, regs, sizeof(regs));
    }
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    const size_t e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

}  // namespace

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

Fingerprint TakeFingerprint(const std::string& commit, uint64_t seed) {
  Fingerprint fp;
  fp.nproc = OnlineCpus();
  fp.cpu_model = CpuModel();
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  fp.l3_bytes = l3 > 0 ? static_cast<uint64_t>(l3) : 0;
  {
    actjoin::util::PerfCounterGroup probe;
    fp.perf_events = probe.UsingHardwareEvents();
  }
  fp.build_type = BuildType();
  fp.commit = commit.empty() ? "unknown" : commit;
  fp.seed = seed;
  return fp;
}

std::string FormatFingerprint(const Fingerprint& fp) {
  std::string l3 = fp.l3_bytes == 0
                       ? std::string("unknown")
                       : std::to_string(fp.l3_bytes >> 20) + "MiB";
  return "fingerprint nproc=" + std::to_string(fp.nproc) + " cpu=\"" +
         fp.cpu_model + "\" l3=" + l3 +
         " perf_event=" + (fp.perf_events ? "yes" : "no") +
         " build=" + fp.build_type + " commit=" + fp.commit +
         " seed=" + std::to_string(fp.seed);
}

}  // namespace perfbench
