#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

// Writing 5 to clear_refs resets the peak resident size to the current
// one, so set-up and the answer check do not count toward the peak.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
