// perfbench: runs one named workload with one seed and prints its
// metrics; the last line of stdout is the JSON result. See README.md.
//
//   perfbench --workload lftj-paper|ms-morsel --seed N --seconds S
//             --trace 0|1 --out-dir DIR --serverd PATH
//             --query-runner PATH [--git-sha SHA]
//
// Exit codes: 0 measured and every answer right; 1 a wrong answer;
// 2 bad arguments or a failed preparation (a reference engine, the
// served preparation or the daemon).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.h"
#include "storage/search_kernels.h"

namespace {

using perfbench::Metrics;
using perfbench::Options;
using perfbench::Report;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  char num[64];
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(num, sizeof(num), "%.9g", metric.value);
    out += JsonString(name) + ": {\"value\": " + num +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Options* opt, std::string* git_sha) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opt->workload = v;
    else if (k == "--seed") opt->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opt->seconds = std::atof(v);
    else if (k == "--trace") opt->trace = std::strcmp(v, "1") == 0;
    else if (k == "--out-dir") opt->out_dir = v;
    else if (k == "--serverd") opt->serverd = v;
    else if (k == "--query-runner") opt->query_runner = v;
    else if (k == "--git-sha") *git_sha = v;
    else return false;
  }
  const bool known =
      opt->workload == "lftj-paper" || opt->workload == "ms-morsel";
  return known && (argc % 2) == 1 && opt->seconds > 0 &&
         !opt->out_dir.empty() && !opt->serverd.empty() &&
         !opt->query_runner.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  if (!ParseArgs(argc, argv, &opt, &git_sha)) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  opt.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  const std::string fingerprint =
      "{\"cpu\": " + JsonString(CpuModel()) +
      ", \"nproc\": " + std::to_string(opt.threads) + ", \"kernel\": " +
      JsonString(wcoj::KernelName(wcoj::ActiveSearchKernel())) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"git_sha\": " + JsonString(git_sha) + "}";
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::fflush(stdout);

  perfbench::Tracer tracer(opt.trace);
  Report rep = perfbench::RunBatch(opt, &tracer);
  if (opt.trace && !rep.invalid) {
    perfbench::BatchLadder(opt, &tracer, &rep.metrics);
    // The daemon layers, probed briefly so every traced run reports the
    // whole ladder.
    Report served = perfbench::ServedProbe(opt, &tracer);
    rep.outcomes.Add(served.outcomes);
    rep.invalid = served.invalid;
    rep.notes.insert(rep.notes.end(), served.notes.begin(),
                     served.notes.end());
    for (const auto& [k, v] : served.metrics) rep.metrics[k] = v;
  }

  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          (opt.trace ? "-trace" : "");
  if (opt.trace && !rep.invalid) {
    const auto self = perfbench::LayerSelfNs(tracer.spans());
    for (const char* layer :
         {"bench", "graph", "storage", "query", "core", "parallel", "server"}) {
      const auto it = self.find(layer);
      rep.metrics[std::string("self_ms.") + layer] = {
          it == self.end() ? 0.0 : it->second / 1e6, "ms"};
    }
    const std::string spans = opt.out_dir + "/spans-" + tag + ".jsonl";
    if (tracer.WriteJsonLines(spans)) {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  spans.c_str());
    }
  }

  const perfbench::Outcomes& o = rep.outcomes;
  if (!opt.trace && o.attempted > 0) {
    rep.metrics["answered_frac"] = {1.0 - o.ErrorFrac(), "frac"};
  }
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%-44s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-44s %14.6g frac (wrong %llu, errors %llu, timeouts %llu, "
              "shed %llu of %llu)\n",
              "error_frac", o.ErrorFrac(),
              static_cast<unsigned long long>(o.wrong),
              static_cast<unsigned long long>(o.errors),
              static_cast<unsigned long long>(o.timeouts),
              static_cast<unsigned long long>(o.shed),
              static_cast<unsigned long long>(o.attempted));
  for (const std::string& note : rep.notes) std::printf("note: %s\n", note.c_str());

  const bool correct = o.wrong == 0 && o.attempted > 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(o.attempted, 1)) +
      ", \"failed\": " +
      std::to_string(o.attempted > 0 ? o.failed() : 1) +
      ", \"metrics\": " + MetricsJson(rep.metrics) + "}";
  std::ofstream(opt.out_dir + "/result-" + tag + ".json")
      << "{\"fingerprint\": " << fingerprint << ", \"error_frac\": "
      << o.ErrorFrac() << ", \"notes\": [" << [&rep] {
           std::string s;
           for (const std::string& n : rep.notes) {
             if (!s.empty()) s += ", ";
             s += JsonString(n);
           }
           return s;
         }() << "], \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  if (o.attempted == 0) return 2;
  if (!correct) return 1;
  return rep.invalid ? 2 : 0;
}
