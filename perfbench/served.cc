// The daemon probe of every traced run: the real wcoj_serverd,
// warm-started from a catalog written in an untimed preparation step,
// driven over its TCP protocol with the served request mix. A closed loop
// (one request outstanding per connection) splits each round trip into
// execution and the rest; an open loop with seeded Poisson arrivals adds
// queue wait and shows how late the load generator ran.
//
// The daemon serves a fixed dataset (Rmat scale 12, seed 7, v1..v4 at
// selectivity 10 with seed 1); the seed drives the arrival schedule, the
// request picks and the renamed variables. The preparation step also
// regenerates that dataset in-process for the direct-execution, query and
// persist probes, and asks query_runner (another engine than the served
// lftj) for the reference count of every request text.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "perfbench.h"
#include "query/agm.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "util/rng.h"

namespace perfbench {

namespace {

struct Template {
  const char* name;
  const char* text;
  double share;
  const char* reference_engine;  // for query_runner; never lftj
};

// About 60% cheap lookups; the rest in the heavy admission class.
const Template kMix[] = {
    {"lookup", "v1(a), v2(b), edge(a,b)", 0.60, "hybrid"},
    {"triangle-v1", "v1(a), edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", 0.25,
     "hybrid"},
    {"two-path", "v1(a), edge(a,b), edge(b,c), v2(c)", 0.10, "hybrid"},
    {"4-clique",
     "edge_lt(a,b), edge_lt(a,c), edge_lt(a,d), edge_lt(b,c), "
     "edge_lt(b,d), edge_lt(c,d)",
     0.05, "psql"},
};
constexpr size_t kNumTemplates = sizeof(kMix) / sizeof(kMix[0]);
constexpr int kMaxConcurrency = 4;
constexpr int kDaemonStartS = 30;
// Share of requests whose variables are renamed, so they miss the
// daemon's prepared-query cache.
constexpr double kMissShare = 0.03;
constexpr double kClosedLoopS = 2.0;
constexpr double kOpenLoopS = 3.0;
// The open-loop arrival rate is fixed, never derived from the code under
// test. On a 4-core Xeon the parent's closed loop answered 334-479/s
// depending on the host's other load; 100/s stays below the point where
// requests start to queue behind a busy connection even on the slowest
// reading, so the open loop measures queue wait behind heavy requests
// rather than saturation.
constexpr double kOpenRateQps = 100.0;

size_t PickTemplate(wcoj::Rng* rng) {
  double u = rng->NextDouble();
  for (size_t i = 0; i + 1 < kNumTemplates; ++i) {
    if (u < kMix[i].share) return i;
    u -= kMix[i].share;
  }
  return kNumTemplates - 1;
}

// Prefixes every variable (an identifier inside parentheses) so the
// text misses the daemon's prepared-query cache yet keeps its GAO.
std::string RenameVariables(const std::string& text, uint64_t tag) {
  std::string prefix = "r";
  prefix += std::to_string(tag);
  prefix += '_';
  std::string out;
  bool in_args = false;
  bool in_ident = false;
  for (const char c : text) {
    const bool ident = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    if (in_args && ident && !in_ident) out += prefix;
    in_ident = ident;
    if (c == '(') in_args = true;
    if (c == ')') in_args = false;
    out += c;
  }
  return out;
}

// ---- processes -------------------------------------------------------

// Runs argv to completion and returns its standard output.
bool RunCapture(const std::vector<std::string>& argv, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) out->append(buf, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  int port = 0;
};

// Reads the daemon's stdout until it announces its port.
bool SpawnDaemon(const Options& opt, const std::string& catalog_dir,
                 Daemon* d) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The daemon dies with the benchmark, even when it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    const std::string conc = std::to_string(kMaxConcurrency);
    execl(opt.serverd.c_str(), opt.serverd.c_str(), "--port", "0",
          "--max-concurrency", conc.c_str(), "--load-catalog",
          catalog_dir.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  d->pid = pid;
  d->out_fd = fds[0];
  std::string seen;
  const int64_t give_up = NowNs() + int64_t{kDaemonStartS} * 1000000000;
  while (NowNs() < give_up) {
    pollfd p{d->out_fd, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = read(d->out_fd, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<size_t>(n));
    const size_t at = seen.find("listening");
    const size_t port = seen.find("port=", at == std::string::npos ? 0 : at);
    if (at != std::string::npos && port != std::string::npos &&
        seen.find('\n', port) != std::string::npos) {
      d->port = std::atoi(seen.c_str() + port + 5);
      return d->port > 0;
    }
  }
  std::fprintf(stderr, "wcoj_serverd did not start: %s\n", seen.c_str());
  return false;
}

// SIGTERM (graceful drain), then SIGKILL if it lingers; always reaped.
void StopDaemon(Daemon* d) {
  if (d->pid > 0) {
    kill(d->pid, SIGTERM);
    int status = 0;
    const int64_t give_up = NowNs() + int64_t{10} * 1000000000;
    while (waitpid(d->pid, &status, WNOHANG) == 0) {
      if (NowNs() > give_up) {
        kill(d->pid, SIGKILL);
        waitpid(d->pid, &status, 0);
        break;
      }
      usleep(5000);
    }
  }
  if (d->out_fd >= 0) close(d->out_fd);
  *d = Daemon();
}

// ---- connections -----------------------------------------------------

class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Send(const std::string& line) {
    const std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  enum class Read { kLine, kTimeout, kClosed };
  // One reply line, or nothing within `timeout_ms`, or a closed socket.
  Read ReadLine(std::string* line, int timeout_ms) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return Read::kLine;
      }
      pollfd p{fd_, POLLIN, 0};
      const int rc = poll(&p, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc == 0) return Read::kTimeout;
      if (rc < 0) return Read::kClosed;
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Read::kClosed;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Request and reply in one call (closed loop).
  bool Call(const std::string& line, std::string* reply) {
    return Send(line) && ReadLine(reply, 120000) == Read::kLine;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::map<std::string, uint64_t> Stats(Conn* c) {
  std::map<std::string, uint64_t> out;
  std::string reply;
  if (!c->Call("STATS", &reply)) return out;
  std::istringstream in(reply);
  std::string kv;
  while (in >> kv) {
    const size_t eq = kv.find('=');
    if (eq != std::string::npos) {
      out[kv.substr(0, eq)] = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
    }
  }
  return out;
}

std::string QueryLine(const std::string& text) {
  return "Q lftj 0 0 " + text;
}

// ---- requests --------------------------------------------------------

struct Request {
  size_t tmpl = 0;
  std::string text;
  int64_t due = 0, sent = 0, done = 0;
  bool replied = false;
  wcoj::ServerReply reply;
};

void Score(const Request& r, const std::vector<uint64_t>& refs, Outcomes* o) {
  ++o->attempted;
  if (!r.replied) {
    ++o->timeouts;
  } else if (r.reply.ok) {
    if (r.reply.count == refs[r.tmpl]) {
      ++o->answered;
    } else {
      ++o->wrong;
      std::fprintf(stderr, "WRONG ANSWER: %s: %llu, want %llu\n",
                   kMix[r.tmpl].name,
                   static_cast<unsigned long long>(r.reply.count),
                   static_cast<unsigned long long>(refs[r.tmpl]));
    }
  } else if (r.reply.shed()) {
    ++o->shed;
  } else if (r.reply.code == "DEADLINE_EXCEEDED") {
    ++o->timeouts;
  } else {
    ++o->errors;
  }
}

// The daemon's dataset regenerated in-process, with everything the
// run needs from it before the daemon starts.
struct Prep {
  std::string catalog_dir;
  std::vector<uint64_t> refs;       // per template, from query_runner
  std::vector<double> direct_ms;    // warm in-process lftj Execute
  Metrics layer;                    // persist and query probes
};

bool Prepare(const Options& opt, Tracer* tr, Prep* prep) {
  Tracer::Scope root(tr, "bench.prepare");
  std::unique_ptr<wcoj::Graph> g;
  {
    Tracer::Scope s(tr, "graph.Rmat");
    g = std::make_unique<wcoj::Graph>(
        wcoj::Rmat(/*scale=*/12, /*num_edges=*/40000, 0.45, 0.2, 0.2,
                   /*seed=*/7));
  }
  wcoj::DatasetRelations rels(*g);
  rels.Resample(/*selectivity=*/10.0, /*seed=*/1);
  const auto rel_map = rels.Map();
  auto lftj = wcoj::CreateEngine("lftj");
  wcoj::ExecScratch scratch;
  std::vector<double> parse_us, bind_us, agm_us;
  for (const Template& t : kMix) {
    const wcoj::Query q = wcoj::MustParseQuery(t.text);
    wcoj::BoundQuery bq = wcoj::Bind(q, rel_map, q.Variables());
    bq.catalog = rels.catalog();
    {
      Tracer::Scope s(tr, "storage.WarmQueryIndexes");
      wcoj::WarmQueryIndexes(bq);
    }
    wcoj::ExecOptions opts;
    opts.scratch = &scratch;
    std::vector<double> ms;
    for (int rep = 0; rep < 6; ++rep) {
      Tracer::Scope s(tr, "core.Execute");
      const int64_t e0 = NowNs();
      lftj->Execute(bq, opts);
      if (rep > 0) ms.push_back(Ms(NowNs() - e0));  // rep 0 warms
    }
    prep->direct_ms.push_back(Median(ms));
    // Query layer: what a prepared-cache miss pays before execution.
    std::vector<double> p, b, a;
    Tracer::Scope probe(tr, "query.ParseBindAgm");
    for (int rep = 0; rep < 201; ++rep) {
      int64_t s0 = NowNs();
      const wcoj::ParseResult parsed = wcoj::ParseQuery(t.text);
      p.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      s0 = NowNs();
      const wcoj::BoundQuery bound =
          wcoj::Bind(parsed.query, rel_map, parsed.query.Variables());
      b.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      s0 = NowNs();
      const wcoj::AgmResult agm = wcoj::AgmBound(bound);
      a.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      if (!agm.ok) return false;
    }
    parse_us.push_back(Median(p));
    bind_us.push_back(Median(b));
    agm_us.push_back(Median(a));
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  prep->layer["query.parse_us"] = {mean(parse_us), "us"};
  prep->layer["query.bind_us"] = {mean(bind_us), "us"};
  prep->layer["query.agm_us"] = {mean(agm_us), "us"};

  prep->catalog_dir = opt.out_dir + "/served-catalog";
  std::error_code ec;
  std::filesystem::remove_all(prep->catalog_dir, ec);
  {
    Tracer::Scope s(tr, "storage.SaveCatalog");
    wcoj::Status st;
    rels.SaveCatalog(prep->catalog_dir, &st);
    if (!st.ok()) {
      std::fprintf(stderr, "save catalog: %s\n", st.ToString().c_str());
      return false;
    }
  }
  double file_bytes = 0.0;
  for (const auto& e :
       std::filesystem::directory_iterator(prep->catalog_dir, ec)) {
    if (e.is_regular_file()) file_bytes += static_cast<double>(e.file_size());
  }
  prep->layer["storage.persist_file_bytes"] = {file_bytes, "bytes"};
  // Persist: open the same directory over the regenerated dataset.
  std::vector<double> open_s;
  for (int rep = 0; rep < 5; ++rep) {
    wcoj::DatasetRelations fresh(*g);
    fresh.Resample(10.0, 1);
    Tracer::Scope s(tr, "storage.LoadCatalog");
    const int64_t o0 = NowNs();
    wcoj::CatalogOpenStats stats;
    fresh.LoadCatalog(prep->catalog_dir, &stats);
    open_s.push_back(Ms(NowNs() - o0) / 1e3);
    if (!stats.status.ok() || stats.installed == 0) {
      std::fprintf(stderr, "load catalog: %s (installed %zu)\n",
                   stats.status.ToString().c_str(), stats.installed);
      return false;
    }
  }
  prep->layer["storage.persist_open_s"] = {Median(open_s), "s"};

  // Answer check: query_runner, another engine, same built-in dataset.
  Tracer::Scope s(tr, "bench.reference");
  for (const Template& t : kMix) {
    std::string out;
    if (!RunCapture({opt.query_runner, t.text, t.reference_engine}, &out)) {
      std::fprintf(stderr, "query_runner failed on %s\n", t.name);
      return false;
    }
    const size_t at = out.find("count=");
    if (at == std::string::npos) return false;
    prep->refs.push_back(std::strtoull(out.c_str() + at + 6, nullptr, 10));
  }
  return true;
}

// ---- load phases -----------------------------------------------------

std::string RequestText(size_t tmpl, wcoj::Rng* rng,
                        std::atomic<uint64_t>* tags) {
  return rng->NextDouble() < kMissShare
             ? RenameVariables(kMix[tmpl].text, tags->fetch_add(1))
             : kMix[tmpl].text;
}

// One request outstanding per connection for kClosedLoopS seconds.
// `tags` numbers the renamed variables so every rename is fresh.
std::vector<Request> ClosedLoop(const Options& opt, std::vector<Conn>* conns,
                                Tracer* tr, std::atomic<uint64_t>* tags) {
  Tracer::Scope phase(tr, "bench.closed_loop");
  std::vector<std::vector<Request>> per(conns->size());
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(kClosedLoopS * 1e9);
  const int64_t shift = tr->NowNs() - start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      wcoj::Rng rng(MixSeed(opt.seed, 100, c));
      uint64_t n = 0;
      while (NowNs() < end) {
        Request r;
        r.tmpl = PickTemplate(&rng);
        r.text = RequestText(r.tmpl, &rng, tags);
        std::string line;
        r.due = r.sent = NowNs();
        r.replied = (*conns)[c].Call(QueryLine(r.text), &line) &&
                    wcoj::ParseReplyLine(line, &r.reply);
        r.done = NowNs();
        tr->Record("server.request", r.sent + shift, r.done + shift,
                   phase.id(), (c + 1) * 1000000 + ++n);
        per[c].push_back(std::move(r));
        if (!per[c].back().replied) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Request> all;
  for (auto& v : per) {
    for (Request& r : v) all.push_back(std::move(r));
  }
  return all;
}

// Seeded Poisson arrivals at kOpenRateQps; each request goes out at its
// due time on the connection with the fewest outstanding requests.
std::vector<Request> OpenLoop(const Options& opt, std::vector<Conn>* conns,
                              Tracer* tr, std::atomic<uint64_t>* tags) {
  Tracer::Scope phase(tr, "bench.open_loop");
  wcoj::Rng rng(MixSeed(opt.seed, 200, 0));
  std::vector<Request> reqs;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kOpenRateQps;
    if (t >= kOpenLoopS) break;
    Request r;
    r.due = static_cast<int64_t>(t * 1e9);  // offset until start is known
    r.tmpl = PickTemplate(&rng);
    r.text = RequestText(r.tmpl, &rng, tags);
    reqs.push_back(std::move(r));
  }
  struct Lane {
    std::mutex mu;
    std::deque<size_t> fifo;  // guarded by mu
    std::atomic<int> outstanding{0};
  };
  std::vector<Lane> lanes(conns->size());
  std::atomic<size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> receivers;
  for (size_t c = 0; c < conns->size(); ++c) {
    receivers.emplace_back([&, c] {
      std::string line;
      while (!stop.load()) {
        const Conn::Read got = (*conns)[c].ReadLine(&line, 50);
        if (got == Conn::Read::kClosed) break;
        if (got == Conn::Read::kTimeout) continue;
        const int64_t now = NowNs();
        size_t idx;
        {
          std::lock_guard<std::mutex> lock(lanes[c].mu);
          if (lanes[c].fifo.empty()) continue;
          idx = lanes[c].fifo.front();
          lanes[c].fifo.pop_front();
        }
        Request& r = reqs[idx];
        r.done = now;
        r.replied = wcoj::ParseReplyLine(line, &r.reply);
        lanes[c].outstanding.fetch_sub(1);
        completed.fetch_add(1);
      }
    });
  }
  const int64_t start = NowNs() + 1000000;  // 1 ms to get going
  for (size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    r.due += start;
    while (NowNs() < r.due) {
      const int64_t left = r.due - NowNs();
      if (left > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
      }
    }
    size_t best = 0;
    for (size_t c = 1; c < lanes.size(); ++c) {
      if (lanes[c].outstanding.load() < lanes[best].outstanding.load()) best = c;
    }
    std::lock_guard<std::mutex> lock(lanes[best].mu);
    r.sent = NowNs();
    lanes[best].fifo.push_back(i);
    lanes[best].outstanding.fetch_add(1);
    if (!(*conns)[best].Send(QueryLine(r.text))) {
      lanes[best].fifo.pop_back();
      lanes[best].outstanding.fetch_sub(1);
      completed.fetch_add(1);
    }
  }
  const int64_t give_up = NowNs() + int64_t{60} * 1000000000;
  while (completed.load() < reqs.size() && NowNs() < give_up) usleep(1000);
  stop.store(true);
  for (std::thread& t : receivers) t.join();
  const int64_t shift = tr->NowNs() - NowNs();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].replied) {
      tr->Record("server.request", reqs[i].sent + shift, reqs[i].done + shift,
                 phase.id(), i + 1);
    }
  }
  return reqs;
}

double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

Report ServedProbe(const Options& opt, Tracer* tracer) {
  Report rep;
  Prep prep;
  if (!Prepare(opt, tracer, &prep)) {
    rep.invalid = true;
    rep.notes.push_back("served preparation failed; nothing measured");
    return rep;
  }
  Metrics& m = rep.metrics;
  m = prep.layer;

  // Spawn until listening, plus one warm-up pass over the mix.
  Daemon daemon;
  bool ok;
  {
    Tracer::Scope s(tracer, "bench.setup");
    {
      Tracer::Scope spawn(tracer, "server.Spawn");
      ok = SpawnDaemon(opt, prep.catalog_dir, &daemon);
    }
    Conn warm;
    ok = ok && warm.Open(daemon.port);
    for (size_t t = 0; ok && t < kNumTemplates; ++t) {
      Tracer::Scope req(tracer, "server.request");
      std::string line;
      wcoj::ServerReply reply;
      ok = warm.Call(QueryLine(kMix[t].text), &line) &&
           wcoj::ParseReplyLine(line, &reply) && reply.ok &&
           reply.count == prep.refs[t];
      if (!ok) std::fprintf(stderr, "warm-up %s: %s\n", kMix[t].name, line.c_str());
    }
  }
  std::vector<Conn> conns(static_cast<size_t>(opt.threads));
  for (Conn& c : conns) ok = ok && c.Open(daemon.port);
  Conn control;
  ok = ok && control.Open(daemon.port);
  if (!ok) {
    StopDaemon(&daemon);
    rep.invalid = true;
    rep.outcomes.attempted = rep.outcomes.errors = 1;
    rep.notes.push_back("daemon start, warm-up or connect failed");
    return rep;
  }
  std::vector<double> rtt;
  std::string line;
  for (int i = 0; i < 201; ++i) {
    Tracer::Scope s(tracer, "server.PING");
    const int64_t t0 = NowNs();
    control.Call("PING", &line);
    rtt.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  m["server.ping_rtt_us"] = {Median(rtt), "us"};

  const auto stats0 = Stats(&control);
  // Renamed variables start from a seed-derived number, so each run's
  // misses are fresh names.
  std::atomic<uint64_t> tags{MixSeed(opt.seed, 300, 0) % 1000000000};
  const std::vector<Request> closed = ClosedLoop(opt, &conns, tracer, &tags);
  const std::vector<Request> open = OpenLoop(opt, &conns, tracer, &tags);
  const auto stats1 = Stats(&control);
  StopDaemon(&daemon);

  for (const Request& r : closed) Score(r, prep.refs, &rep.outcomes);
  for (const Request& r : open) Score(r, prep.refs, &rep.outcomes);

  std::vector<double> late, nonexec_open;
  for (const Request& r : open) {
    late.push_back(Ms(r.sent - r.due));
    if (r.replied && r.reply.ok) {
      nonexec_open.push_back(Ms(r.done - r.sent) - r.reply.seconds * 1e3);
    }
  }
  std::vector<double> exec_ms, hit, miss;
  double served_sum = 0.0, direct_sum = 0.0;
  for (const Request& r : closed) {
    if (!r.replied || !r.reply.ok) continue;
    exec_ms.push_back(r.reply.seconds * 1e3);
    served_sum += r.reply.seconds * 1e3;
    direct_sum += prep.direct_ms[r.tmpl];
    (r.reply.cached ? hit : miss)
        .push_back(Ms(r.done - r.sent) - r.reply.seconds * 1e3);
  }
  m["server.exec_ms"] = {Median(exec_ms), "ms"};
  m["server.exec_vs_direct"] = {served_sum / std::max(direct_sum, 1e-9), "x"};
  m["server.nonexec_ms.hit"] = {Median(hit), "ms"};
  m["server.nonexec_ms.miss"] = {Median(miss), "ms"};
  m["server.nonexec_p99_ms"] = {Percentile(nonexec_open, 99.0), "ms"};
  auto delta = [&](const char* k) {
    const auto a = stats0.find(k), b = stats1.find(k);
    return a == stats0.end() || b == stats1.end() ? 0 : b->second - a->second;
  };
  m["server.cache_hit_frac"] = {
      Frac(delta("cache_hits"), delta("cache_hits") + delta("cache_misses")),
      "frac"};
  // The admitted share rather than the shed one: with one request
  // outstanding per connection nothing is shed, and no metric reads 0.
  m["server.admitted_frac"] = {1.0 - Frac(delta("shed"), delta("requests")),
                               "frac"};
  m["loadgen.late_p99_ms"] = {Percentile(late, 99.0), "ms"};
  return rep;
}

}  // namespace perfbench