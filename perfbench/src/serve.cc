// serve: an aplusd child process serves a sealed segment of a power-law
// graph; this process is the load generator. A closed loop gives qps
// and query_s, an open loop at a fixed rate gives p50/p99 latency timed
// from each request's scheduled send time. Every response is checked
// against answers computed from the benchmark's own edge array.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "oracle.h"
#include "server/client.h"
#include "storage/segment.h"
#include "util/rng.h"

namespace perfbench {

using aplus::Client;
using aplus::Database;
using aplus::Graph;
using aplus::Value;

namespace {

// The request mix: a 1-hop lookup returning rows, a grouped aggregate
// and a single-source triangle count, all bound to $src.
constexpr const char* kTexts[3] = {
    "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b, r.amt",
    "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b, COUNT(*), SUM(r.amt)",
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) WHERE a.ID = $src RETURN COUNT(*)",
};
enum Kind : uint8_t { kPoint = 0, kGroup = 1, kTriangle = 2 };

// Requests per connection per closed-loop round.
constexpr size_t kRoundRequests = 2000;
// Open-loop offered load, requests/s over all connections.
constexpr double kOpenRate = 10000.0;

// Bulk loads timed after the run, for the medians of index_build_s and
// ingest_eps. About 6 s of them, because the host's speed sags for
// seconds at a time and eleven loads (2 s) read 0.09 s or 0.18 s.
constexpr int kLoadRepeats = 31;

// Windows of the closed-loop rate (see WindowedRate).
constexpr int64_t kWindowNs = 100'000'000;
// p99_us is the median over 100 ms stretches of the open-loop schedule
// (1 000 requests, ten beyond the 99th percentile) of each stretch's 99th
// percentile (see ScheduledQuantile). On a shared virtualised host a
// descheduled vCPU stalls every request behind it for milliseconds, and
// those stalls alone set the p99 of a whole run (158 to 1 659 us over six
// seeds on a 4-vCPU VM). The whole run's p99 is the per-layer
// loadgen.p99_all_us.
constexpr size_t kOpenWindow = static_cast<size_t>(kOpenRate / 10);
constexpr size_t kMinOpenWindows = 3;

// One answered request, kept for the check after the run.
struct Record {
  uint32_t src;
  uint8_t kind;
  bool ok;
  uint64_t digest;  // row digest, or the COUNT(*) value for triangles
  uint64_t rows;
};

// The aplusd child. Stopped with SIGTERM and reaped by Stop() or the
// destructor on every exit path; killed if it does not exit in time.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `argv` on `cpus` with stdout on a pipe and waits for the
  // listening line. Returns the port, or -1.
  int Start(const std::vector<std::string>& args, const cpu_set_t& cpus) {
    int fds[2];
    if (pipe(fds) != 0) return -1;
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return -1;
    }
    if (pid_ == 0) {
      // Die with the benchmark if it dies first.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      sched_setaffinity(0, sizeof(cpus), &cpus);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    std::string text;
    const int64_t deadline = NowNs() + 60'000'000'000LL;
    while (NowNs() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      char buf[512];
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;  // the server exited
      text.append(buf, static_cast<size_t>(n));
      size_t at = text.find("listening on port ");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        return std::atoi(text.c_str() + at + std::strlen("listening on port "));
      }
    }
    std::fprintf(stderr, "aplusd did not start: %s\n", text.c_str());
    return -1;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 10'000'000'000LL;
      pid_t done = 0;
      while ((done = waitpid(pid_, &status, WNOHANG)) == 0 && NowNs() < deadline) {
        usleep(10000);
      }
      if (done == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// One generator connection: a client, its three statements and its
// fixed, seeded request list.
struct Connection {
  Client client;
  uint32_t stmt[3] = {0, 0, 0};
  std::vector<std::pair<uint8_t, uint32_t>> requests;  // (kind, src)
  std::vector<Record> records;
  std::vector<double> round_seconds;
  std::vector<int64_t> closed_done_ns;  // completion time of each closed-loop request
  std::vector<std::pair<int64_t, double>> open_latency_us;  // (due, latency from due)
  std::vector<double> lateness_us;
  uint64_t closed_requests = 0;
  int64_t closed_end_ns = 0;
  uint64_t failures = 0;
  TraceBuffer* trace = nullptr;
};

// Sends one request and records its digest.
void SendRequest(Connection* conn, size_t index, uint64_t request_id) {
  const auto [kind, src] = conn->requests[index % conn->requests.size()];
  ScopedSpan span(conn->trace, "server.execute", request_id);
  Client::Result r =
      conn->client.Execute(conn->stmt[kind], {{"src", Value::Int64(static_cast<int64_t>(src))}});
  span.set_arg(r.seconds * 1e6);
  span.Finish();
  Record rec{src, kind, r.ok() && !r.more, 0, 0};
  if (!rec.ok) {
    conn->failures++;
  } else if (kind == kTriangle) {
    rec.rows = r.rows.rows.size();
    rec.digest = rec.rows == 1 ? static_cast<uint64_t>(r.rows.rows[0][0].AsInt64()) : ~0ULL;
  } else {
    for (const std::vector<Value>& row : r.rows.rows) {
      uint64_t b = static_cast<uint64_t>(row[0].AsInt64());
      rec.digest += kind == kPoint
                        ? MixRow(b, static_cast<uint64_t>(row[1].AsInt64()))
                        : MixRow(b, static_cast<uint64_t>(row[1].AsInt64()),
                                 static_cast<uint64_t>(row[2].AsInt64()));
    }
    rec.rows = r.rows.rows.size();
  }
  conn->records.push_back(rec);
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  Tracer* tracer = options.tracer;
  TraceBuffer* main_trace = tracer->NewBuffer();

  // --- Set-up: generate, build, seal, spawn, prepare, warm up. ---
  // The graph's structure is a fixed input; --seed draws `amt` and the
  // request lists (see README.md, "Seeds").
  EdgeArray edges;
  Graph graph;
  {
    ScopedSpan span(main_trace, "datagen.generate");
    aplus::PowerLawParams params;
    params.num_vertices =
        std::max<uint64_t>(2000, static_cast<uint64_t>(50000 * options.size));
    params.avg_degree = 8.0;
    params.preferential_fraction = 0.75;
    params.seed = 1000;
    aplus::GeneratePowerLawGraph(params, &graph);
    aplus::prop_key_t amt_key = graph.AddEdgeProperty("amt", aplus::ValueType::kInt64);
    aplus::PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
    aplus::Rng rng(options.seed * 7919 + 13);
    for (aplus::edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
    }
  }
  edges.num_vertices = static_cast<uint32_t>(graph.num_vertices());
  {
    const aplus::PropertyColumn* amt =
        graph.edge_props().column(graph.catalog().FindProperty("amt", aplus::PropTargetKind::kEdge));
    for (aplus::edge_id_t e = 0; e < graph.num_edges(); ++e) {
      edges.src.push_back(graph.edge_src(e));
      edges.dst.push_back(graph.edge_dst(e));
      edges.amt.push_back(amt->GetInt64(e));
    }
  }
  const uint64_t num_edges = edges.size();

  const std::string segment_path = options.run_dir + "/serve.seg";
  {
    Database db(std::move(graph));
    {
      ScopedSpan span(main_trace, "index.primary_build");
      db.BuildPrimaryIndexes();
    }
    std::string error;
    ScopedSpan span(main_trace, "storage.seal");
    if (!db.SealToSegment(segment_path, &error)) {
      report->Incorrect("seal: " + error);
      return;
    }
  }
  struct stat st{};
  const uint64_t segment_bytes =
      stat(segment_path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;

  // Sources: vertices with 1..32 out-edges, drawn uniformly per request.
  Adjacency adjacency(edges, num_edges);
  std::vector<uint32_t> eligible;
  for (uint32_t v = 0; v < edges.num_vertices; ++v) {
    uint64_t d = adjacency.out_degree(v);
    if (d >= 1 && d <= 32) eligible.push_back(v);
  }

  // The server and the generator each get half of this process's CPUs,
  // so that which threads share a CPU is the same on every run: left to
  // the scheduler, loopback ping-pong ran at two speeds from run to run.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t server_cpus;
  cpu_set_t client_cpus;
  CPU_ZERO(&server_cpus);
  CPU_ZERO(&client_cpus);
  for (size_t i = 0; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], i < cpus.size() / 2 || cpus.size() == 1 ? &server_cpus : &client_cpus);
  }
  if (cpus.size() == 1) client_cpus = server_cpus;
  const int workers = std::max<int>(1, static_cast<int>(cpus.size()) / 2);
  const int num_conns = std::max<int>(1, static_cast<int>(cpus.size()) - workers);
  sched_setaffinity(0, sizeof(client_cpus), &client_cpus);  // inherited by the connection threads
  ServerProcess server;
  int64_t spawn_ns = NowNs();
  ScopedSpan open_span(main_trace, "storage.open");
  int port = server.Start({options.aplusd, "--port=0", "--workers=" + std::to_string(workers),
                           "--graph=" + segment_path},
                          server_cpus);
  if (port <= 0) {
    report->Incorrect("aplusd failed to start");
    return;
  }

  std::vector<std::unique_ptr<Connection>> conns;
  aplus::Rng request_rng(options.seed * 104729 + 7);
  for (int c = 0; c < num_conns; ++c) {
    auto conn = std::make_unique<Connection>();
    std::string error;
    if (!conn->client.Connect("127.0.0.1", port, &error)) {
      report->Incorrect("connect: " + error);
      return;
    }
    for (int k = 0; k < 3; ++k) {
      ScopedSpan span(main_trace, "server.prepare");
      Client::PreparedInfo info = conn->client.Prepare(kTexts[k]);
      if (!info.ok()) {
        report->Incorrect(std::string("prepare: ") + info.error);
        return;
      }
      conn->stmt[k] = info.stmt_id;
    }
    // Fixed mix per round: 3 lookups, 1 aggregate, 1 triangle count.
    for (size_t i = 0; i < kRoundRequests; ++i) {
      uint8_t kind = i % 5 < 3 ? kPoint : (i % 5 == 3 ? kGroup : kTriangle);
      conn->requests.push_back(
          {kind, eligible[request_rng.NextBounded(eligible.size())]});
    }
    conn->records.reserve(1 << 20);
    conn->closed_done_ns.reserve(1 << 20);
    conns.push_back(std::move(conn));
  }
  // The first answered request ends storage.open.
  SendRequest(conns[0].get(), 0, 0);
  open_span.Finish();
  const double open_s = SecondsBetween(spawn_ns, NowNs());

  // Warm-up: one whole round per connection.
  {
    std::vector<std::thread> threads;
    for (auto& conn : conns) {
      threads.emplace_back([&conn] {
        for (size_t i = 0; i < kRoundRequests; ++i) SendRequest(conn.get(), i, 0);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double setup_s = SecondsBetween(options.start_ns, NowNs());
  for (auto& conn : conns) conn->trace = tracer->NewBuffer();

  auto stats_now = [&]() {
    Client c;
    std::string error;
    Client::Stats stats;
    if (c.Connect("127.0.0.1", port, &error)) stats = c.GetStats();
    return stats;
  };
  Client::Stats stats_before = stats_now();

  // --- Closed loop: whole rounds until the phase deadline. ---
  const int64_t closed_start = NowNs();
  const int64_t closed_deadline = closed_start + static_cast<int64_t>(options.seconds * 0.45e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        Connection* conn = conns[c].get();
        uint64_t request_id = (static_cast<uint64_t>(c) + 1) << 40;
        while (NowNs() < closed_deadline) {
          int64_t t0 = NowNs();
          for (size_t i = 0; i < kRoundRequests; ++i) {
            SendRequest(conn, i, ++request_id);
            conn->closed_done_ns.push_back(NowNs());
          }
          conn->round_seconds.push_back(SecondsBetween(t0, NowNs()));
          conn->closed_requests += kRoundRequests;
        }
        conn->closed_end_ns = NowNs();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // Whole windows only: every connection is still sending in them.
  int64_t closed_end = std::numeric_limits<int64_t>::max();
  uint64_t closed_requests = 0;
  std::vector<double> round_seconds;
  std::vector<int64_t> closed_done;
  for (auto& conn : conns) {
    closed_end = std::min(closed_end, conn->closed_end_ns);
    closed_done.insert(closed_done.end(), conn->closed_done_ns.begin(), conn->closed_done_ns.end());
    closed_requests += conn->closed_requests;
    round_seconds.insert(round_seconds.end(), conn->round_seconds.begin(),
                         conn->round_seconds.end());
  }

  // --- Open loop: a fixed schedule at kOpenRate, latency from the
  // scheduled send time, so a stall also delays the requests behind it.
  const int64_t period_ns = static_cast<int64_t>(1e9 * num_conns / kOpenRate);
  const int64_t open_start = NowNs() + 1'000'000;
  const int64_t open_deadline = open_start + static_cast<int64_t>(options.seconds * 0.45e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        prctl(PR_SET_TIMERSLACK, 1UL);  // wake on schedule, not 50 µs late
        Connection* conn = conns[c].get();
        uint64_t request_id = ((static_cast<uint64_t>(c) + 1) << 40) + (1ULL << 39);
        const int64_t offset = static_cast<int64_t>(c) * period_ns / num_conns;
        for (size_t i = 0;; ++i) {
          int64_t due = open_start + offset + static_cast<int64_t>(i) * period_ns;
          if (due >= open_deadline) break;
          int64_t now = NowNs();
          if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          }
          conn->lateness_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
          SendRequest(conn, i, ++request_id);
          conn->open_latency_us.push_back({due, static_cast<double>(NowNs() - due) * 1e-3});
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Client::Stats stats_after = stats_now();
  for (auto& conn : conns) conn->client.Close();
  server.Stop();

  // --- Bulk load, repeated for a median: build D and seal, from the
  // edge array, the way the set-up did once.
  std::vector<double> builds;
  std::vector<double> seals;
  {
    Graph copy;
    aplus::label_t vlabel = copy.catalog().AddVertexLabel("V");
    aplus::label_t elabel = copy.catalog().AddEdgeLabel("E");
    for (uint32_t v = 0; v < edges.num_vertices; ++v) copy.AddVertex(vlabel);
    aplus::prop_key_t amt_key = copy.AddEdgeProperty("amt", aplus::ValueType::kInt64);
    for (size_t e = 0; e < num_edges; ++e) {
      aplus::edge_id_t id = copy.AddEdge(edges.src[e], edges.dst[e], elabel);
      copy.edge_props().mutable_column(amt_key)->SetInt64(id, edges.amt[e]);
    }
    Database db(std::move(copy));
    for (int i = 0; i < kLoadRepeats; ++i) {
      int64_t t0 = NowNs();
      db.BuildPrimaryIndexes();
      int64_t t1 = NowNs();
      std::string error;
      if (!db.SealToSegment(options.run_dir + "/reload.seg", &error)) {
        report->Incorrect("seal: " + error);
        return;
      }
      builds.push_back(SecondsBetween(t0, t1));
      seals.push_back(SecondsBetween(t1, NowNs()));
    }
  }
  const double build_s = Median(builds);
  const double seal_s = Median(seals);

  // --- Check every response against the edge array. ---
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> expected;  // key -> (digest, rows)
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t total_rows = 0;
  bool perturbed = false;
  for (auto& conn : conns) {
    failures += conn->failures;
    for (const Record& rec : conn->records) {
      ++requests;
      if (!rec.ok) continue;
      total_rows += rec.rows;
      uint64_t key = (static_cast<uint64_t>(rec.src) << 2) | rec.kind;
      auto it = expected.find(key);
      if (it == expected.end()) {
        uint64_t rows = 1;
        uint64_t digest = rec.kind == kPoint   ? adjacency.PointDigest(rec.src, &rows)
                          : rec.kind == kGroup ? adjacency.GroupDigest(rec.src, &rows)
                                               : adjacency.Triangles(rec.src);
        if (options.perturb == 1 && !perturbed) {
          digest += 1;
          perturbed = true;
        }
        it = expected.emplace(key, std::make_pair(digest, rows)).first;
      }
      if (rec.digest != it->second.first || rec.rows != it->second.second) {
        report->Incorrect("serve: " + std::string(kTexts[rec.kind]) + " for $src=" +
                          std::to_string(rec.src) + " returned " + std::to_string(rec.rows) +
                          " rows (digest " + std::to_string(rec.digest) + "), expected " +
                          std::to_string(it->second.second) + " (digest " +
                          std::to_string(it->second.first) + ")");
      }
    }
  }
  report->Attempt(requests);
  report->Fail(failures);
  if (failures > 0) report->Incorrect("serve: " + std::to_string(failures) + " requests failed");

  std::vector<std::pair<int64_t, double>> open_samples;
  std::vector<double> open_latency;
  std::vector<double> lateness;
  for (auto& conn : conns) {
    open_samples.insert(open_samples.end(), conn->open_latency_us.begin(),
                        conn->open_latency_us.end());
    for (const auto& sample : conn->open_latency_us) open_latency.push_back(sample.second);
    lateness.insert(lateness.end(), conn->lateness_us.begin(), conn->lateness_us.end());
  }
  std::fprintf(stderr,
               "serve: %llu edges, %d workers, %d connections, %llu closed-loop requests, "
               "%zu open-loop requests at %.0f/s, %zu rounds\n",
               static_cast<unsigned long long>(num_edges), workers, num_conns,
               static_cast<unsigned long long>(closed_requests), open_latency.size(), kOpenRate,
               round_seconds.size());
  if (!options.trace) {
    size_t windows = 0;
    const double p99 = ScheduledQuantile(open_samples, kOpenWindow, 0.99, &windows);
    if (windows < kMinOpenWindows) {
      report->Incorrect("serve: the open loop ran " + std::to_string(windows) +
                        " latency windows, fewer than " + std::to_string(kMinOpenWindows));
    }
    report->Set("setup_s", setup_s, "s");
    report->Set("qps", WindowedRate(closed_done, closed_start, closed_end, kWindowNs), "queries/s");
    report->SetPercentile("p50_us", open_latency, 0.50, "us");
    report->Set("p99_us", p99, "us");
    report->Set("query_s", Median(round_seconds), "s");
    report->Set("index_build_s", build_s, "s");
    report->Set("index_bytes_per_edge", static_cast<double>(segment_bytes) / num_edges, "B/edge");
    report->Set("ingest_eps", static_cast<double>(num_edges) / (build_s + seal_s), "edges/s");
    return;
  }

  std::vector<double> rtt = tracer->DurationsUs("server.execute");
  std::vector<double> engine = tracer->Args("server.execute");
  std::vector<double> wire(rtt.size());
  for (size_t i = 0; i < rtt.size(); ++i) wire[i] = rtt[i] - engine[i];
  report->Set("server.execute_rtt_us", Median(rtt), "us");
  report->Set("server.engine_us", Median(engine), "us");
  report->Set("server.wire_overhead_us.p50", Quantile(wire, 0.5), "us");
  report->Set("server.wire_overhead_us.p99", Quantile(wire, 0.99), "us");
  report->Set("server.prepare_us", Median(tracer->DurationsUs("server.prepare")), "us");
  uint64_t hits = stats_after.cache_hits;
  uint64_t misses = stats_after.cache_misses;
  report->Set("server.plan_cache_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0, "ratio");
  report->Set("server.batch_saved",
              static_cast<double>(stats_after.batch_saved - stats_before.batch_saved), "count");
  report->Set("query.rows_per_request",
              requests > failures ? static_cast<double>(total_rows) / (requests - failures) : 0.0,
              "rows");
  report->Set("loadgen.send_lateness_us.p99", Quantile(lateness, 0.99), "us");
  report->Set("loadgen.p99_all_us", Quantile(open_latency, 0.99), "us");
  report->Set("storage.seal_s", tracer->TotalSeconds("storage.seal"), "s");
  report->Set("storage.open_s", open_s, "s");
  report->Set("storage.segment_bytes", static_cast<double>(segment_bytes), "bytes");
  std::string error;
  std::unique_ptr<aplus::Segment> segment = aplus::OpenSegment(segment_path, &error);
  report->Set("storage.raw_pages", segment ? segment->stats().raw_pages : 0, "count");
  report->Set("storage.packed_pages", segment ? segment->stats().packed_pages : 0, "count");
  report->Set("datagen.generate_s", tracer->TotalSeconds("datagen.generate"), "s");
  report->Set("index.primary_build_s", tracer->TotalSeconds("index.primary_build"), "s");
}

}  // namespace perfbench
