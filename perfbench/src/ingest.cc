// ingest: one writer thread streams held-back edges through
// Graph::AddEdge + Maintainer::OnEdgeInserted, unpaced, inside
// BeginConcurrentIngest / EndConcurrentIngest with background merges,
// while reader threads (one Session each) run prepared MagicRecs-style
// 2-hop COUNT(*) lookups in a closed loop.
//
// The run is made of whole rounds. Each round builds D over the same
// base edges, inserts the same slice of the stream and then ends the
// phase, so every round walks the graph through the same states. A
// lookup's cost grows with the edges inserted before it; a phase that
// ran for a fixed time would let the writer's speed on the host of the
// moment decide how large the graph got, and with it the readers'
// figures.
//
// Checks: inserts only add matches, so every reader answer must lie
// between the answer before the phase and the answer after it; after
// EndConcurrentIngest every answer equals the edge-array computation.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "oracle.h"
#include "util/rng.h"

namespace perfbench {

using aplus::Database;
using aplus::Graph;

namespace {

// Who else follows the accounts a follows?
constexpr const char* kLookup =
    "MATCH (a)-[r1:E]->(b)<-[r2:E]-(c) WHERE a.ID = $src RETURN COUNT(*)";
constexpr double kBaseShare = 0.3;  // of the generated edges, built into D
constexpr size_t kSources = 2000;   // lookups per pass over a reader's list
// Edges the writer inserts in one round (at size 1): about 3.5 s on the
// reference host, so a 20 s run makes five to seven rounds.
constexpr double kRoundInserts = 200000;
constexpr int kBuildRepeats = 31;  // BuildPrimaryIndexes timings, for a median

struct Answer {
  uint32_t src;
  uint64_t count;
};

struct Reader {
  std::unique_ptr<aplus::Session> session;
  aplus::PreparedQuery* query = nullptr;
  std::vector<uint32_t> sources;
  std::vector<Answer> answers;       // this round's, checked when it ends
  std::vector<double> latency_us;    // every round's
  std::vector<double> pass_seconds;  // every round's whole passes
  uint64_t failures = 0;
  uint64_t requests = 0;  // span request ids
  TraceBuffer* trace = nullptr;
};

// One lookup; returns false when the execute failed.
bool Lookup(Reader* reader, uint32_t src, Answer* answer) {
  const uint64_t request = ++reader->requests;
  ScopedSpan lookup(reader->trace, "reader.lookup", request);
  {
    ScopedSpan span(reader->trace, "core.bind", request, lookup.id());
    reader->query->Bind("src", aplus::Value::Int64(src));
  }
  ScopedSpan span(reader->trace, "core.execute", request, lookup.id());
  aplus::QueryOutcome out = reader->query->Execute(nullptr, 1);
  span.set_arg(out.seconds * 1e6);
  *answer = {src, out.count};
  return out.ok();
}

// A Database over the first `num_edges` edges, primary indexes unbuilt.
std::unique_ptr<Database> NewDatabase(const EdgeArray& edges, size_t num_edges,
                                      aplus::label_t* label) {
  Graph graph;
  aplus::label_t vlabel = graph.catalog().AddVertexLabel("V");
  *label = graph.catalog().AddEdgeLabel("E");
  for (uint32_t v = 0; v < edges.num_vertices; ++v) graph.AddVertex(vlabel);
  for (size_t i = 0; i < num_edges; ++i) graph.AddEdge(edges.src[i], edges.dst[i], *label);
  return std::make_unique<Database>(std::move(graph));
}

}  // namespace

void RunIngest(const Options& options, Report* report) {
  Tracer* tracer = options.tracer;
  TraceBuffer* main_trace = tracer->NewBuffer();

  // --- Set-up: generate, split, build D, prepare, warm up. ---
  // The graph is a fixed input and --seed draws the reader sources: the
  // insert rate follows the hub structure, and across generator seeds it
  // ran at 29 000 or 55 000 edges/s, each steady within its run.
  EdgeArray edges;
  {
    ScopedSpan span(main_trace, "datagen.generate");
    Graph full;
    aplus::PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(150000 * options.size));
    params.avg_degree = 12.0;
    params.preferential_fraction = 0.75;
    params.seed = 3000;
    aplus::GeneratePowerLawGraph(params, &full);
    edges.num_vertices = static_cast<uint32_t>(full.num_vertices());
    for (aplus::edge_id_t e = 0; e < full.num_edges(); ++e) {
      edges.src.push_back(full.edge_src(e));
      edges.dst.push_back(full.edge_dst(e));
    }
  }
  const size_t base_edges = static_cast<size_t>(edges.size() * kBaseShare);
  const size_t final_edges =
      std::min(edges.size(), base_edges + static_cast<size_t>(kRoundInserts * options.size));
  aplus::label_t label = aplus::kInvalidLabel;
  std::unique_ptr<Database> db = NewDatabase(edges, base_edges, &label);
  {
    ScopedSpan span(main_trace, "index.primary_build");
    db->BuildPrimaryIndexes();
  }

  Adjacency before(edges, base_edges);
  Adjacency after(edges, final_edges);
  // Readers + writer + merger leave one core for the rest of the host.
  // Each reader's sources are drawn one from each of kSources equal
  // strata of the eligible vertices ranked by their pre-phase answer,
  // then shuffled: plain samples of 1 000 sources moved a pass's time by
  // 30% from seed to seed, by how many followers of hubs they held.
  const int num_readers = std::max(1, options.cores - 3);
  std::vector<std::unique_ptr<Reader>> readers;
  {
    std::vector<std::pair<uint64_t, uint32_t>> eligible;  // (answer, vertex)
    for (uint32_t v = 0; v < edges.num_vertices; ++v) {
      uint64_t d = before.out_degree(v);
      if (d >= 1 && d <= 16) eligible.push_back({before.Recommendations(v), v});
    }
    std::sort(eligible.begin(), eligible.end());
    const size_t strata = std::min(kSources, eligible.size());
    aplus::Rng rng(options.seed * 6151 + 3);
    for (int r = 0; r < num_readers; ++r) {
      auto reader = std::make_unique<Reader>();
      std::vector<uint32_t>& s = reader->sources;
      for (size_t i = 0; i < strata; ++i) {
        size_t lo = i * eligible.size() / strata;
        size_t hi = (i + 1) * eligible.size() / strata;
        s.push_back(eligible[lo + rng.NextBounded(hi - lo)].second);
      }
      for (size_t i = s.size(); i > 1; --i) std::swap(s[i - 1], s[rng.NextBounded(i)]);
      reader->answers.reserve(1 << 20);
      reader->latency_us.reserve(1 << 21);
      readers.push_back(std::move(reader));
    }
  }
  std::unordered_map<uint32_t, uint64_t> pre;
  std::unordered_map<uint32_t, uint64_t> post;
  for (const auto& reader : readers) {
    for (uint32_t src : reader->sources) {
      pre.emplace(src, before.Recommendations(src));
      post.emplace(src, after.Recommendations(src));
    }
  }
  // Prepares every reader's lookup on `db` and warms it up with one pass,
  // checked against the pre-phase answers.
  auto prepare_readers = [&]() {
    for (const auto& reader : readers) {
      reader->session = std::make_unique<aplus::Session>(db.get());
      reader->query = reader->session->Prepare(kLookup);
      if (!reader->query->ok()) {
        report->Incorrect("prepare: " + reader->query->error());
        return false;
      }
      for (uint32_t src : reader->sources) {
        Answer a{};
        if (!Lookup(reader.get(), src, &a) || a.count != pre[src]) {
          report->Incorrect("ingest warm-up: $src=" + std::to_string(src) + " counted " +
                            std::to_string(a.count) + ", expected " + std::to_string(pre[src]));
        }
      }
    }
    return true;
  };
  if (!prepare_readers()) return;
  const double setup_s = SecondsBetween(options.start_ns, NowNs());
  for (auto& reader : readers) reader->trace = tracer->NewBuffer();
  TraceBuffer* writer_trace = tracer->NewBuffer();

  // --- The rounds: an unpaced writer, readers until it stops. ---
  std::vector<double> writer_seconds;
  std::vector<double> round_qps;
  std::vector<double> flush_seconds;
  std::vector<double> merges;
  uint64_t requests = 0;
  uint64_t inserted = 0;
  uint64_t insert_failures = 0;
  bool perturbed = false;
  const int64_t rounds_start = NowNs();
  const int64_t deadline = rounds_start + static_cast<int64_t>(options.seconds * 1e9);
  for (int round = 0; round == 0 || NowNs() < deadline; ++round) {
    if (round > 0) {
      for (auto& reader : readers) reader->session.reset();
      db = NewDatabase(edges, base_edges, &label);
      db->BuildPrimaryIndexes();
      if (!prepare_readers()) return;
    }
    aplus::ConcurrentIngestOptions ingest;
    ingest.max_vertices = edges.num_vertices;
    ingest.max_edges = final_edges;
    ingest.background_merge = true;
    db->BeginConcurrentIngest(ingest);
    std::atomic<bool> writing{true};
    size_t next = base_edges;
    const int64_t writer_start = NowNs();
    int64_t writer_end = writer_start;
    std::thread writer([&] {
      for (; next < final_edges; ++next) {
        aplus::edge_id_t id;
        {
          ScopedSpan span(writer_trace, "storage.add_edge");
          id = db->graph().AddEdge(edges.src[next], edges.dst[next], label);
        }
        if (id == aplus::kInvalidEdge) {
          ++insert_failures;
          break;
        }
        ScopedSpan span(writer_trace, "index.maintain");
        db->maintainer().OnEdgeInserted(id);
      }
      writer_end = NowNs();
      writing.store(false, std::memory_order_release);
    });
    std::vector<std::thread> threads;
    for (auto& reader : readers) {
      threads.emplace_back([&reader, &writing] {
        while (writing.load(std::memory_order_acquire)) {
          int64_t pass_start = NowNs();
          size_t i = 0;
          for (; i < reader->sources.size() && writing.load(std::memory_order_acquire); ++i) {
            Answer a{};
            int64_t t0 = NowNs();
            bool ok = Lookup(reader.get(), reader->sources[i], &a);
            reader->latency_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
            if (!ok) reader->failures++;
            reader->answers.push_back(a);
          }
          if (i == reader->sources.size()) {
            reader->pass_seconds.push_back(SecondsBetween(pass_start, NowNs()));
          }
        }
      });
    }
    writer.join();
    for (std::thread& t : threads) t.join();
    {
      ScopedSpan span(main_trace, "index.flush");
      const int64_t flush_start = NowNs();
      db->EndConcurrentIngest();
      flush_seconds.push_back(SecondsBetween(flush_start, NowNs()));
    }
    const double writer_s = SecondsBetween(writer_start, writer_end);
    inserted += next - base_edges;
    writer_seconds.push_back(writer_s);
    merges.push_back(static_cast<double>(db->maintainer().background_merges()));

    // --- This round's checks. ---
    uint64_t round_requests = 0;
    for (const auto& reader : readers) {
      for (const Answer& a : reader->answers) {
        ++round_requests;
        uint64_t lower = pre[a.src];
        if (options.perturb == 1 && !perturbed) {
          lower = a.count + 1;
          perturbed = true;
        }
        if (a.count < lower || a.count > post[a.src]) {
          report->Incorrect("ingest: $src=" + std::to_string(a.src) + " counted " +
                            std::to_string(a.count) + " during the phase, outside [" +
                            std::to_string(lower) + ", " + std::to_string(post[a.src]) + "]");
        }
      }
      reader->answers.clear();
    }
    requests += round_requests;
    round_qps.push_back(static_cast<double>(round_requests) / writer_s);
    for (const auto& reader : readers) {
      for (uint32_t src : reader->sources) {
        uint64_t expected = post[src];
        if (options.perturb == 2 && !perturbed) {
          expected += 1;
          perturbed = true;
        }
        Answer a{};
        if (!Lookup(reader.get(), src, &a) || a.count != expected) {
          report->Incorrect("ingest: after the phase $src=" + std::to_string(src) + " counted " +
                            std::to_string(a.count) + ", expected " + std::to_string(expected));
        }
      }
    }
  }
  // index_build_s: BuildPrimaryIndexes over the base edges, repeated on
  // a fresh Database for a median.
  std::vector<double> builds;
  {
    aplus::label_t unused;
    std::unique_ptr<Database> rebuilt = NewDatabase(edges, base_edges, &unused);
    for (int i = 0; i < kBuildRepeats; ++i) builds.push_back(rebuilt->BuildPrimaryIndexes());
  }
  const double build_s = Median(builds);

  uint64_t failures = insert_failures;
  for (const auto& reader : readers) failures += reader->failures;
  report->Attempt(requests + inserted);
  report->Fail(failures);
  if (failures > 0) {
    report->Incorrect("ingest: " + std::to_string(failures) + " lookups or inserts failed");
  }

  std::vector<double> latencies;
  std::vector<double> passes;
  for (const auto& reader : readers) {
    latencies.insert(latencies.end(), reader->latency_us.begin(), reader->latency_us.end());
    passes.insert(passes.end(), reader->pass_seconds.begin(), reader->pass_seconds.end());
  }
  std::fprintf(stderr,
               "ingest: %zu base edges, %zu rounds of %zu inserts (median %.2f s), %d readers, "
               "%llu lookups, %zu passes\n",
               base_edges, writer_seconds.size(), final_edges - base_edges, Median(writer_seconds),
               num_readers, static_cast<unsigned long long>(requests), passes.size());

  if (!options.trace) {
    report->Set("setup_s", setup_s, "s");
    report->Set("qps", Median(round_qps), "queries/s");
    report->SetPercentile("p50_us", latencies, 0.50, "us");
    report->SetPercentile("p99_us", latencies, 0.99, "us");
    report->Set("query_s", Median(passes), "s");
    report->Set("index_build_s", build_s, "s");
    report->Set("index_bytes_per_edge",
                static_cast<double>(db->IndexMemoryBytes()) / static_cast<double>(final_edges),
                "B/edge");
    report->Set("ingest_eps",
                static_cast<double>(final_edges - base_edges) / Median(writer_seconds),
                "edges/s");
    return;
  }
  report->Set("datagen.generate_s", tracer->TotalSeconds("datagen.generate"), "s");
  report->Set("index.primary_build_s", tracer->TotalSeconds("index.primary_build"), "s");
  std::vector<double> add_edge = tracer->DurationsUs("storage.add_edge");
  std::vector<double> maintain = tracer->DurationsUs("index.maintain");
  report->Set("storage.add_edge_us.p50", Quantile(add_edge, 0.5), "us");
  report->Set("storage.add_edge_us.p99", Quantile(add_edge, 0.99), "us");
  report->Set("index.maintain_us.p50", Quantile(maintain, 0.5), "us");
  report->Set("index.maintain_us.p99", Quantile(maintain, 0.99), "us");
  report->Set("index.flush_s", Median(flush_seconds), "s");
  report->Set("index.background_merges", Median(merges), "count");
  report->Set("index.bytes.primary", static_cast<double>(db->index_store().PrimaryMemoryBytes()),
              "bytes");
  report->Set("index.edges_indexed", static_cast<double>(db->index_store().TotalEdgesIndexed()),
              "count");
  report->Set("core.bind_us", Median(tracer->DurationsUs("core.bind")), "us");
  std::vector<double> exec = tracer->DurationsUs("core.execute");
  std::vector<double> engine = tracer->Args("core.execute");
  std::vector<double> dispatch(exec.size());
  for (size_t i = 0; i < exec.size(); ++i) dispatch[i] = exec[i] - engine[i];
  report->Set("core.execute_us.p50", Quantile(exec, 0.5), "us");
  report->Set("core.execute_us.p99", Quantile(exec, 0.99), "us");
  report->Set("core.dispatch_us", Median(dispatch), "us");
}

}  // namespace perfbench
