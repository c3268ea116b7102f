// gpup_perf — runs one benchmark workload against the gpup library through
// its public API and prints the raw measurements as one JSON document.
// perfbench/run.py builds this program, turns the raw samples into the
// named metrics and checks the recorded Table III cycle counts.
//
//   gpup_perf --workload table3_paper|inproc_burst|serve_rounds
//             --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): set up the workload several times, each in a fresh
// process (each set-up ends with one untimed op per load level), keep the
// last, then alternate blocks of .low and
// .high ops for S seconds, timing every op and reading process CPU time at
// every block boundary.
//
// Traced (--trace 1): the named workload's untimed loop for S/2 seconds
// (its latency tails), then one traced pass per workload — the same ops
// composed from the layers' public calls with a span around each call —
// and standalone probes of the layers no op isolates. Every traced run
// prints every per-layer row, whichever workload it was given.
#include <dirent.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/isa/assembler.hpp"
#include "src/kern/benchmark.hpp"
#include "src/repro/repro.hpp"
#include "src/rt/event_graph.hpp"
#include "src/rt/runtime.hpp"
#include "src/rt/scheduler.hpp"
#include "src/rv/assembler.hpp"
#include "src/serve/client.hpp"
#include "src/serve/daemon.hpp"
#include "src/serve/protocol.hpp"
#include "src/sim/gpu.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace gpup;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string proc_stat_cpu_line() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

// ---- JSON output -------------------------------------------------------

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>) {
      out += json_number(values[i]);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out += json_string(values[i]);
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double value) { return raw(key, json_number(value)); }
  JsonObject& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- op accounting and the timed loop ----------------------------------

/// Ops attempted and failed across the whole run; the first few failure
/// messages are kept for the report.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex m;
  std::vector<std::string> errors;

  bool record(bool ok, const std::string& what = "op failed") {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) fail(what);
    return ok;
  }
  void fail(const std::string& what) {
    failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(m);
    if (errors.size() < 8) errors.push_back(what);
  }
};

struct Block {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One load level's samples: per-op wall latency and per-block totals.
struct Level {
  std::vector<double> lat_us;
  std::vector<Block> blocks;

  [[nodiscard]] std::string json() const {
    std::vector<double> ops, wall, cpu;
    for (const Block& b : blocks) {
      ops.push_back(static_cast<double>(b.ops));
      wall.push_back(b.wall_s);
      cpu.push_back(b.cpu_s);
    }
    return JsonObject()
        .raw("lat_us", json_array(lat_us))
        .raw("block_ops", json_array(ops))
        .raw("block_wall_s", json_array(wall))
        .raw("block_cpu_s", json_array(cpu))
        .dump();
  }
};

/// Runs ops until `block_s` has passed (at least one op), appending each
/// op's latency to `lat` — or -1 for a failed op, which run.py counts as
/// missing every latency limit. Returns the number of ops run.
std::uint64_t run_ops_for(double block_s, const std::function<bool()>& op,
                          std::vector<double>& lat) {
  const auto start = Clock::now();
  std::uint64_t ops = 0;
  do {
    const auto t0 = Clock::now();
    const bool ok = op();
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    lat.push_back(ok ? us : -1.0);
    ++ops;
  } while (seconds_since(start) < block_s);
  return ops;
}

/// A load level: runs one block of ops lasting about `block_s` seconds,
/// appending op latencies, and returns how many ops it ran.
using BlockFn = std::function<std::uint64_t(double block_s, std::vector<double>& lat)>;

void run_block(const BlockFn& fn, double block_s, Level& level) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  Block block;
  block.ops = fn(block_s, level.lat_us);
  block.wall_s = seconds_since(t0);
  block.cpu_s = process_cpu_s() - cpu0;
  level.blocks.push_back(block);
}

/// Alternates .low and .high blocks until `seconds` have passed, so slow
/// drift of the host lands on both levels alike.
void timed_phase(double seconds, const BlockFn& low, double low_block_s, const BlockFn& high,
                 double high_block_s, Level& low_out, Level& high_out) {
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    run_block(low, low_block_s, low_out);
    run_block(high, high_block_s, high_out);
  }
}

/// Puts the generator threads and the library's threads on disjoint CPUs
/// while it lives: the calling thread (and every thread it creates) on the
/// first `generator_cpus` CPUs of its mask, every other thread of the
/// process on the rest (each on a CPU of its own when there are enough).
/// Left to the kernel, a one-outstanding-launch loop
/// runs at about half the latency whenever the kernel happens to wake the
/// runtime's worker on the generator's CPU, and it switches between the
/// two modes from run to run; pinned, it always crosses CPUs, as it does
/// on a loaded multi-core host. Threads the library creates later inherit
/// their creator's mask. Does nothing when no CPU would be left over.
class Placement {
 public:
  explicit Placement(int generator_cpus) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
    }
    if (generator_cpus < 1 || static_cast<std::size_t>(generator_cpus) >= cpus.size()) return;
    cpu_set_t generators, rest;
    CPU_ZERO(&generators);
    CPU_ZERO(&rest);
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      CPU_SET(cpus[i], i < static_cast<std::size_t>(generator_cpus) ? &generators : &rest);
    }
    const pid_t self = ::gettid();
    DIR* tasks = ::opendir("/proc/self/task");
    if (tasks == nullptr) return;
    std::vector<pid_t> library;
    while (const dirent* entry = ::readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0 && tid != self) library.push_back(tid);
    }
    ::closedir(tasks);
    // When every library thread can have a CPU of its own, give it one:
    // left to share the rest, the two runtime workers of inproc_burst
    // sometimes settled on one CPU for a whole run, and a .high burst then
    // took about 4 ms of wall time instead of 2.2 at the same CPU time.
    const auto first_spare = static_cast<std::size_t>(generator_cpus);
    const bool own_cpu = library.size() <= cpus.size() - first_spare;
    for (std::size_t i = 0; i < library.size(); ++i) {
      cpu_set_t mask = rest;
      if (own_cpu) {
        CPU_ZERO(&mask);
        CPU_SET(cpus[first_spare + i], &mask);
      }
      (void)sched_setaffinity(library[i], sizeof mask, &mask);
    }
    pinned_ = sched_setaffinity(0, sizeof generators, &generators) == 0;
  }
  ~Placement() {
    if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Accumulated time inside one layer's calls.
struct Span {
  double total_us = 0.0;
  std::uint64_t calls = 0;
  std::vector<double> call_us;  ///< each call, for the traced report's p99

  [[nodiscard]] double mean_us() const { return calls == 0 ? 0.0 : total_us / calls; }
};

/// Returns fn(), adding the call's wall time to `span` unless it is null.
template <typename F>
auto timed(Span* span, F&& fn) {
  if (span == nullptr) return fn();
  const auto t0 = Clock::now();
  auto result = fn();
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  span->total_us += us;
  ++span->calls;
  span->call_us.push_back(us);
  return result;
}

double timed_us(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// One per-layer row of the traced report.
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
  std::uint64_t samples = 0;
  std::vector<double> call_us{};  ///< per-call latencies of a latency row
};

/// A row whose value is the mean time per call of `span`.
Row latency_row(const std::string& name, const Span& span, const std::string& base) {
  return {name, span.mean_us(), "us", base, span.calls, span.call_us};
}

std::string rows_json(const std::vector<Row>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonObject()
               .str("name", rows[i].name)
               .num("value", rows[i].value)
               .str("unit", rows[i].unit)
               .str("base", rows[i].base)
               .count("samples", rows[i].samples)
               .raw("call_us", json_array(rows[i].call_us))
               .dump();
  }
  return out + "]";
}

/// A traced pass's op timings: the traced op, the same op untraced, and
/// each layer's total time inside the traced ops (for the remainder row).
struct PassTiming {
  std::string level;
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  std::vector<std::pair<std::string, double>> layer_total_us;

  [[nodiscard]] std::string json() const {
    JsonObject layers;
    for (const auto& [name, us] : layer_total_us) layers.num(name, us);
    return JsonObject()
        .str("level", level)
        .raw("traced_us", json_array(traced_us))
        .raw("untraced_us", json_array(untraced_us))
        .raw("layer_total_us", layers.dump())
        .dump();
  }
};

std::uint32_t mix32(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ULL ^ b);
  return rng.next_u32();
}

// ---- the burst kernel (inproc_burst, serve_rounds, sim probes) ----------

// buf[i] = buf[i] * 3 + k for i < n; args: n, buf, k.
constexpr const char* kStepSource = R"(.kernel step
  tid   r1
  param r2, 0
  bgeu  r1, r2, done
  slli  r3, r1, 2
  param r4, 1
  add   r4, r4, r3
  lw    r5, 0(r4)
  addi  r6, r0, 3
  mul   r5, r5, r6
  param r7, 2
  add   r5, r5, r7
  sw    r5, 0(r4)
done:
  ret
)";

constexpr std::uint32_t kTinyWords = 32;

void step_golden(std::vector<std::uint32_t>& words, std::uint32_t k, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) words[i] = words[i] * 3u + k;
}

isa::Program compile_or_die(const std::string& source) {
  auto program = rt::Context::compile(source);
  GPUP_CHECK_MSG(program.ok(), program.ok() ? "" : program.error().to_string());
  return program.value();
}

// ======================================================================
// table3_paper — the paper's Table III matrix at paper input sizes.
// ======================================================================

using Cells = std::vector<std::uint64_t>;  // per benchmark: rv, rv_opt, 1/2/4/8 CU

Cells cells_of(const std::vector<repro::CycleRow>& rows) {
  Cells cells;
  for (const auto& row : rows) {
    cells.push_back(row.riscv_cycles);
    cells.push_back(row.riscv_optimized_cycles);
    for (const auto c : row.gpu_cycles) cells.push_back(c);
  }
  return cells;
}

bool rows_valid(const std::vector<repro::CycleRow>& rows) {
  return !rows.empty() &&
         std::all_of(rows.begin(), rows.end(), [](const auto& row) { return row.all_valid; });
}

/// One op: a whole sweep at `threads` (1 = serial, 0 = one per CPU), valid
/// against the host goldens and cycle-identical to the reference sweep.
bool table3_sweep(unsigned threads, const Cells& reference, Tally& tally) {
  const auto rows = repro::run_cycle_matrix(1, threads);
  if (!rows_valid(rows)) return tally.record(false, "table3: a cell missed its host golden");
  return tally.record(cells_of(rows) == reference,
                      "table3: cycle counts differ from the reference sweep");
}

/// Set-up: assemble every kernel of the matrix, then one untimed sweep at
/// the library's default thread count. Returns that sweep's rows.
std::vector<repro::CycleRow> table3_setup() {
  for (const auto* benchmark : kern::all_benchmarks()) {
    (void)compile_or_die(benchmark->gpu_source());
    for (const bool optimized : {false, true}) {
      GPUP_CHECK(rv::RvAssembler::assemble(benchmark->riscv_source(optimized)).ok());
    }
  }
  auto rows = repro::run_cycle_matrix(1, 0);
  GPUP_CHECK_MSG(rows_valid(rows), "table3 warm-up sweep failed validation");
  return rows;
}

/// Spans and simulator counts of the composed sweeps below, summed over
/// every traced sweep.
struct Table3Trace {
  Span isa, kern, sim, sim_cu1, sim_cu8, rv;
  std::uint64_t cycles_cu1 = 0, cycles_cu8 = 0, rv_instructions = 0;
  std::uint64_t cycles = 0, stall_scoreboard = 0, stall_mem_queue = 0, stall_no_wavefront = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

/// A serial sweep composed from the layers' public calls, at the input
/// sizes of the set-up sweep's `rows`: isa (compile), kern (prepare + input
/// upload), sim (Gpu::try_launch on a copy of the prepared device memory)
/// and rv (kern::run_riscv). With `spans` each of those calls is timed into
/// `t`; without, the same calls run untimed, which is the base of the
/// trace overhead. Everything else is the remainder: contexts, the read-back
/// compare, and the copy of the device memory, which the library's own
/// sweep does not do.
bool composed_table3_sweep(const std::vector<repro::CycleRow>& rows, bool spans, Table3Trace& t,
                           Tally& tally) {
  const auto& benchmarks = kern::all_benchmarks();
  GPUP_CHECK(benchmarks.size() == rows.size());
  auto span = [spans](Span& s) { return spans ? &s : nullptr; };
  Cells cells;
  bool valid = true;
  for (std::size_t b = 0; b < rows.size(); ++b) {
    const kern::Benchmark* benchmark = benchmarks[b];
    GPUP_CHECK(benchmark->name() == rows[b].name);
    for (const bool optimized : {false, true}) {
      const auto run = timed(span(t.rv), [&] {
        return kern::run_riscv(*benchmark, rows[b].riscv_input, optimized);
      });
      valid = valid && run.valid;
      cells.push_back(run.stats.cycles);
      t.rv_instructions += run.stats.instructions;
    }
    for (const int cu : repro::kCuConfigs) {
      sim::GpuConfig config;
      config.cu_count = cu;
      rt::Context context(config, 1, 1);
      auto queue = context.create_queue();
      const auto program =
          timed(span(t.isa), [&] { return compile_or_die(benchmark->gpu_source()); });
      kern::GpuWorkload work = timed(span(t.kern), [&] {
        kern::GpuWorkload prepared = benchmark->prepare(queue, rows[b].gpu_input);
        for (const auto& dep : prepared.deps) GPUP_CHECK(dep.wait());
        GPUP_CHECK(queue.finish());
        return prepared;
      });
      // Copy the prepared device memory into a bare simulator.
      const std::uint32_t image_bytes = work.out.addr + work.out.bytes;
      const auto image = queue.enqueue_read(rt::Buffer{0, image_bytes, work.out.device});
      GPUP_CHECK(image.wait());
      sim::Gpu gpu(context.device_config(0));
      GPUP_CHECK(gpu.try_alloc(image_bytes).ok());
      GPUP_CHECK(gpu.try_write(0, image.data()).ok());
      auto launch = [&] {
        return gpu.try_launch(program, work.params, work.global_size, work.wg_size);
      };
      Span* by_cu = cu == 1 ? span(t.sim_cu1) : cu == 8 ? span(t.sim_cu8) : nullptr;
      const auto launched = timed(span(t.sim), [&] { return timed(by_cu, launch); });
      if (!launched.ok()) {
        valid = false;
        cells.push_back(0);
        continue;
      }
      const sim::LaunchStats& stats = launched.value();
      std::vector<std::uint32_t> out(work.out.words());
      GPUP_CHECK(gpu.try_read(work.out.addr, out).ok());
      valid = valid && out == work.golden;
      cells.push_back(stats.cycles);
      if (cu == 1) t.cycles_cu1 += stats.cycles;
      if (cu == 8) t.cycles_cu8 += stats.cycles;
      t.cycles += stats.cycles;
      t.stall_scoreboard += stats.counters.stall_scoreboard;
      t.stall_mem_queue += stats.counters.stall_mem_queue;
      t.stall_no_wavefront += stats.counters.stall_no_wavefront;
      t.cache_hits += stats.counters.cache_hits;
      t.cache_misses += stats.counters.cache_misses;
    }
  }
  if (!valid) return tally.record(false, "table3 composed: a cell missed its host golden");
  // Cells are in the same order as cells_of(): rv, rv_opt, 1/2/4/8 CU.
  return tally.record(cells == cells_of(rows),
                      "table3 composed: cycles differ from the reference sweep");
}

// ======================================================================
// inproc_burst — an in-process runtime driven by one generator thread.
// ======================================================================

constexpr int kBurstTenants = 4;
constexpr int kBurstLaunches = 64;  // per tenant
constexpr int kLowBuffers = 64;

/// One launch target: a device buffer and the host's golden copy of it.
struct Slot {
  rt::Buffer buffer;
  std::vector<std::uint32_t> golden;
};

struct Inproc {
  std::uint64_t seed = 0;
  std::unique_ptr<rt::Context> context;
  isa::Program program;
  rt::CommandQueue low_queue;
  std::vector<Slot> low_slots;
  std::array<rt::CommandQueue, kBurstTenants> tenant_queues;
  std::array<std::vector<Slot>, kBurstTenants> tenant_slots;
  std::uint64_t low_ops = 0;
  std::uint64_t bursts = 0;

  explicit Inproc(std::uint64_t workload_seed) : seed(workload_seed) {
    rt::ContextOptions options;
    options.devices = {sim::GpuConfig{}, sim::GpuConfig{}};
    options.threads = 2;
    options.scheduler.policy = rt::SchedulerPolicy::kFairShare;
    context = std::make_unique<rt::Context>(std::move(options));
    program = compile_or_die(kStepSource);
    low_queue = context->create_queue();
    std::vector<rt::Event> uploads;
    auto make_slots = [&](rt::CommandQueue& queue, int count, std::vector<Slot>& slots) {
      for (int i = 0; i < count; ++i) {
        auto buffer = queue.alloc_words(kTinyWords);
        GPUP_CHECK(buffer.ok());
        Slot slot{buffer.value(), std::vector<std::uint32_t>(kTinyWords)};
        for (std::uint32_t w = 0; w < kTinyWords; ++w) {
          slot.golden[w] = mix32(seed, uploads.size() * kTinyWords + w);
        }
        uploads.push_back(queue.enqueue_write(slot.buffer, slot.golden));
        slots.push_back(std::move(slot));
      }
    };
    make_slots(low_queue, kLowBuffers, low_slots);
    for (int t = 0; t < kBurstTenants; ++t) {
      rt::QueueOptions queue_options;
      queue_options.mode = rt::QueueMode::kOutOfOrder;
      queue_options.tenant = static_cast<std::uint64_t>(t + 1);
      auto created = context->create_queue(queue_options);
      GPUP_CHECK(created.ok());
      tenant_queues[t] = created.value();
      make_slots(tenant_queues[t], kBurstLaunches, tenant_slots[t]);
    }
    for (const auto& upload : uploads) GPUP_CHECK(upload.wait());
  }

  rt::Event enqueue(rt::CommandQueue& queue, Slot& slot, std::uint32_t k,
                    const std::vector<rt::Event>& wait_list) {
    return queue.enqueue_kernel(program, rt::Args().add(kTinyWords).add(slot.buffer).add(k),
                                {kTinyWords, kTinyWords}, rt::LaunchOptions{}, wait_list);
  }

  /// .low op: one launch, waited for before the next is enqueued.
  bool low_op(Tally& tally, Span* enqueue_span = nullptr, Span* wait_span = nullptr) {
    Slot& slot = low_slots[low_ops % kLowBuffers];
    const std::uint32_t k = mix32(seed, 0x10000000u + low_ops++);
    const rt::Event event = timed(enqueue_span, [&] { return enqueue(low_queue, slot, k, {}); });
    const bool ok = timed(wait_span, [&] { return event.wait(); });
    if (ok) step_golden(slot.golden, k, kTinyWords);
    return tally.record(ok, "inproc: a launch did not complete");
  }

  /// .high op: 4 tenants x 64 launches gated by one user event, released
  /// at once and all waited for.
  bool burst_op(Tally& tally, Span* enqueue_span = nullptr, Span* settle_span = nullptr) {
    rt::UserEvent gate = context->create_user_event();
    const std::vector<rt::Event> wait_list = {gate.event()};
    std::vector<rt::Event> events;
    std::vector<std::uint32_t> ks;
    events.reserve(kBurstTenants * kBurstLaunches);
    ks.reserve(kBurstTenants * kBurstLaunches);
    for (int l = 0; l < kBurstLaunches; ++l) {
      for (int t = 0; t < kBurstTenants; ++t) {
        const std::uint32_t k = mix32(seed, (bursts << 16) + ks.size());
        ks.push_back(k);
        Slot& slot = tenant_slots[t][l];
        events.push_back(
            timed(enqueue_span, [&] { return enqueue(tenant_queues[t], slot, k, wait_list); }));
      }
    }
    ++bursts;
    auto settle = [&] {
      gate.complete();
      bool all = true;
      for (const auto& event : events) all = event.wait() && all;
      return all;
    };
    const bool ok = timed(settle_span, settle);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].status() != rt::EventStatus::kComplete) continue;
      const int l = static_cast<int>(i) / kBurstTenants;
      const int t = static_cast<int>(i) % kBurstTenants;
      step_golden(tenant_slots[t][l].golden, ks[i], kTinyWords);
    }
    return tally.record(ok, "inproc: a burst launch did not complete");
  }

  /// Reads every buffer back; each one that differs from its host golden
  /// fails the last op that wrote it.
  void check_readbacks(Tally& tally) {
    auto check = [&](rt::CommandQueue& queue, const std::vector<Slot>& slots) {
      for (const Slot& slot : slots) {
        const auto read = queue.enqueue_read(slot.buffer);
        if (!read.wait() || read.data() != slot.golden) {
          tally.fail("inproc: a read-back differs from its host golden");
        }
      }
    };
    check(low_queue, low_slots);
    for (int t = 0; t < kBurstTenants; ++t) check(tenant_queues[t], tenant_slots[t]);
  }
};

// ======================================================================
// serve_rounds — an in-process gpupd on a Unix socket, driven by clients.
// ======================================================================

// Round sizes on both sides of the default BatchConfig::small_launch_cycles
// (8192): 64 items simulate in about 160 cycles, 8192 in about 13k. The
// mix of one large round in four is an assumption, not measured traffic;
// the report prints each size's cycles and share (see README.md).
constexpr std::uint32_t kSmallRound = 64;
constexpr std::uint32_t kLargeRound = 8192;

struct Session {
  serve::Client client;
  std::uint64_t program = 0;
  std::uint64_t small_buffer = 0;
  std::uint64_t large_buffer = 0;
  Rng rng;
  std::uint64_t rounds = 0;
  std::uint64_t seeded_rounds = 0;  ///< rounds whose size the seed chose
  std::uint64_t seeded_large = 0;   ///< of those, the large ones
};

/// Per-call spans of one Client round.
struct RoundTrace {
  Span write, launch, read, wait;
};

struct Served {
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<std::unique_ptr<Session>> sessions;

  Served(std::uint64_t seed, int session_count, const std::string& socket_path) {
    serve::DaemonOptions options;
    options.socket_path = socket_path;
    options.context.devices = {sim::GpuConfig{}, sim::GpuConfig{}};
    options.context.threads = 2;
    options.context.scheduler.policy = rt::SchedulerPolicy::kFairShare;
    daemon = std::make_unique<serve::Daemon>(std::move(options));
    GPUP_CHECK(daemon->start().ok());
    for (int s = 0; s < session_count; ++s) {
      serve::ClientOptions client_options;
      client_options.tenant = static_cast<std::uint64_t>(s + 1);
      auto connected = serve::Client::connect(socket_path, client_options);
      GPUP_CHECK_MSG(connected.ok(), connected.ok() ? "" : connected.error().to_string());
      auto session = std::make_unique<Session>(
          Session{std::move(connected).value(), 0, 0, 0, Rng(seed * 131 + s), 0});
      auto program = session->client.compile(kStepSource);
      auto small = session->client.alloc_words(kSmallRound);
      auto large = session->client.alloc_words(kLargeRound);
      GPUP_CHECK(program.ok() && small.ok() && large.ok());
      session->program = program.value();
      session->small_buffer = small.value();
      session->large_buffer = large.value();
      sessions.push_back(std::move(session));
    }
  }

  ~Served() {
    sessions.clear();
    daemon->hard_stop();
    ::unlink(daemon->socket_path().c_str());
  }
};

enum class RoundSize { kSeeded, kSmall, kLarge };

/// One op: write a fresh seeded input, launch, read back, wait, compare
/// against the host golden. The seed makes one round in four large, above
/// the runtime's small-launch batching bound; set-up forces each size once.
bool serve_round(Session& s, Tally& tally, RoundTrace* trace = nullptr,
                 RoundSize size = RoundSize::kSeeded) {
  const bool large = size == RoundSize::kSeeded ? s.rng.next_below(4) == 0
                                                : size == RoundSize::kLarge;
  if (size == RoundSize::kSeeded) {
    ++s.seeded_rounds;
    s.seeded_large += large ? 1 : 0;
  }
  const std::uint32_t n = large ? kLargeRound : kSmallRound;
  std::vector<std::uint32_t> words(n);
  for (auto& word : words) word = s.rng.next_u32();
  const std::uint32_t k = s.rng.next_u32();
  const std::uint64_t buffer = large ? s.large_buffer : s.small_buffer;
  serve::LaunchSpec spec;
  spec.program = s.program;
  spec.args = {{false, n}, {true, buffer}, {false, k}};
  spec.global_size = n;
  spec.wg_size = 64;
  ++s.rounds;

  auto span = [trace](Span RoundTrace::*member) {
    return trace != nullptr ? &(trace->*member) : nullptr;
  };
  auto written = timed(span(&RoundTrace::write), [&] { return s.client.write(buffer, words); });
  auto launched = timed(span(&RoundTrace::launch), [&] { return s.client.launch(spec); });
  auto read = timed(span(&RoundTrace::read), [&] { return s.client.read(buffer); });
  if (!written.ok() || !launched.ok() || !read.ok()) {
    return tally.record(false, "serve: a request was refused");
  }
  auto outcome =
      timed(span(&RoundTrace::wait), [&] { return s.client.wait(read.value(), 10'000); });
  if (!outcome.ok() || outcome.value().result != rt::WaitResult::kComplete) {
    return tally.record(false, "serve: a read-back did not complete");
  }
  step_golden(words, k, n);
  return tally.record(outcome.value().data == words, "serve: a read-back differs from its golden");
}

/// Runs rounds on `count` sessions, one generator thread each.
std::uint64_t serve_block(Served& served, int count, double block_s, std::vector<double>& lat,
                          Tally& tally) {
  if (count == 1) {
    return run_ops_for(block_s, [&] { return serve_round(*served.sessions[0], tally); }, lat);
  }
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(count));
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(count), 0);
  std::vector<std::thread> threads;
  for (int s = 0; s < count; ++s) {
    threads.emplace_back([&, s] {
      ops[s] = run_ops_for(block_s, [&] { return serve_round(*served.sessions[s], tally); }, lats[s]);
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (int s = 0; s < count; ++s) {
    lat.insert(lat.end(), lats[s].begin(), lats[s].end());
    total += ops[s];
  }
  return total;
}

/// Simulated cycles of a round's launch of `n` items on a default device,
/// as a daemon device runs it.
std::uint64_t round_cycles(std::uint32_t n) {
  const isa::Program program = compile_or_die(kStepSource);
  sim::Gpu gpu(sim::GpuConfig{});
  const auto addr = gpu.try_alloc(n * 4);
  GPUP_CHECK(addr.ok());
  const auto launched = gpu.try_launch(program, {n, addr.value(), 1}, n, 64);
  GPUP_CHECK(launched.ok());
  return launched.value().cycles;
}

/// The launch mix of the seeded rounds: each size's simulated cycles
/// beside the batching bound, and how many rounds were large.
std::string serve_mix_json(const Served& served, const std::string& source) {
  std::uint64_t rounds = 0, large = 0;
  for (const auto& session : served.sessions) {
    rounds += session->seeded_rounds;
    large += session->seeded_large;
  }
  return JsonObject()
      .str("source", source)
      .count("small_items", kSmallRound)
      .count("small_cycles", round_cycles(kSmallRound))
      .count("large_items", kLargeRound)
      .count("large_cycles", round_cycles(kLargeRound))
      .num("small_launch_cycles", rt::BatchConfig{}.small_launch_cycles)
      .count("rounds", rounds)
      .count("large_rounds", large)
      .dump();
}

std::uint64_t frames_total(serve::Client& client) {
  const auto metrics = client.metrics();
  GPUP_CHECK(metrics.ok());
  const std::string& json = metrics.value();
  const std::string key = "\"frames_total\": ";
  const auto at = json.find(key);
  GPUP_CHECK(at != std::string::npos);
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// ======================================================================
// Standalone layer probes.
// ======================================================================

/// Mean time of `fn` over repeated calls lasting at least `min_s`.
template <typename F>
std::pair<double, std::uint64_t> probe_ns(double min_s, F&& fn) {
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 64; ++i) fn();
    calls += 64;
    elapsed = seconds_since(start);
  } while (elapsed < min_s);
  return {elapsed * 1e9 / static_cast<double>(calls), calls};
}

void probe_scheduler(std::vector<Row>& rows) {
  const std::array<std::pair<rt::SchedulerPolicy, const char*>, 3> policies = {
      {{rt::SchedulerPolicy::kFifo, "fifo"},
       {rt::SchedulerPolicy::kPriority, "priority"},
       {rt::SchedulerPolicy::kFairShare, "fair"}}};
  for (const auto& [policy, name] : policies) {
    for (const int n : {10, 100, 1000}) {
      rt::SchedulerConfig config;
      config.policy = policy;
      auto scheduler = rt::Scheduler::create(config);
      std::vector<std::shared_ptr<rt::detail::EventState>> nodes(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        nodes[i] = std::make_shared<rt::detail::EventState>();
        nodes[i]->tag.priority = i % 3;
        nodes[i]->tag.tenant = static_cast<std::uint64_t>(i % 4);
      }
      std::uint64_t seq = 0;
      double pop_s = 0.0;
      std::uint64_t pops = 0;
      const auto start = Clock::now();
      while (seconds_since(start) < 0.03) {
        for (auto& node : nodes) {
          node->tag.seq = seq++;
          scheduler->push(node);
        }
        const auto t0 = Clock::now();
        while (scheduler->pop() != nullptr) ++pops;
        pop_s += seconds_since(t0);
      }
      rows.push_back({std::string("rt.sched.pop_ns.") + name + "." + std::to_string(n),
                      pop_s * 1e9 / static_cast<double>(pops), "ns",
                      "per pop, draining a ready set of " + std::to_string(n), pops});
    }
  }
}

void probe_codec(std::vector<Row>& rows) {
  volatile std::uint64_t sink = 0;
  const auto [ns, calls] = probe_ns(0.03, [&] {
    serve::WireWriter writer;
    writer.u64(7);                 // program handle
    writer.u32(kSmallRound);       // global size
    writer.u32(64);                // work-group size
    writer.u64(0);                 // deadline
    writer.u32(1);                 // attempts
    writer.u64(0);                 // backoff
    writer.u64(0);                 // jitter seed
    writer.u32(3);                 // args
    for (int a = 0; a < 3; ++a) {
      writer.u8(a == 1 ? 1 : 0);
      writer.u64(static_cast<std::uint64_t>(a) + 11);
    }
    const auto payload = writer.take();
    std::uint8_t header[serve::kHeaderBytes];
    serve::FrameHeader fh;
    fh.payload_len = static_cast<std::uint32_t>(payload.size());
    fh.type = serve::MsgType::kLaunch;
    fh.request_id = sink;
    serve::encode_header(fh, header);
    serve::WireReader reader(payload);
    std::uint64_t acc = reader.u64() + reader.u32() + reader.u32() + reader.u64() + reader.u32() +
                        reader.u64() + reader.u64();
    const std::uint32_t nargs = reader.u32();
    for (std::uint32_t a = 0; a < nargs; ++a) acc += reader.u8() + reader.u64();
    GPUP_CHECK(reader.done());
    sink = sink + acc + header[4];
  });
  rows.push_back({"serve.codec_ns.launch", ns, "ns",
                  "encode + decode of one launch frame (3 args)", calls});
}

void probe_sim(std::vector<Row>& rows, Tally& tally) {
  const isa::Program program = compile_or_die(kStepSource);
  sim::Gpu gpu(sim::GpuConfig{});
  constexpr int kSegments = 32;
  std::vector<std::uint32_t> addrs;
  std::vector<std::vector<std::uint32_t>> params;
  for (int s = 0; s < kSegments; ++s) {
    auto addr = gpu.try_alloc(kTinyWords * 4);
    GPUP_CHECK(addr.ok());
    GPUP_CHECK(gpu.try_write(addr.value(), std::vector<std::uint32_t>(kTinyWords, 1)).ok());
    addrs.push_back(addr.value());
    params.push_back({kTinyWords, addr.value(), static_cast<std::uint32_t>(s)});
  }
  bool ok = true;
  const auto [launch_ns, launches] = probe_ns(0.05, [&] {
    ok = gpu.try_launch(program, params[0], kTinyWords, kTinyWords).ok() && ok;
  });
  std::vector<sim::LaunchSegment> segments(kSegments);
  for (int s = 0; s < kSegments; ++s) {
    segments[s] = {&params[s], kTinyWords, kTinyWords, nullptr};
  }
  const auto [batch_ns, batches] = probe_ns(0.05, [&] {
    for (const auto& result : gpu.try_launch_batch(program, segments)) ok = result.ok() && ok;
  });
  tally.record(ok, "sim probe: a launch failed");
  rows.push_back({"sim.launch_us.tiny", launch_ns / 1e3, "us",
                  "bare Gpu::try_launch of the 32-item burst kernel", launches});
  rows.push_back({"sim.batch_segment_us", batch_ns / 1e3 / kSegments, "us",
                  "per segment of a 32-segment Gpu::try_launch_batch", batches * kSegments});
}

void probe_assemble(std::vector<Row>& rows) {
  std::vector<std::string> sources = {kStepSource};
  for (const auto* benchmark : kern::all_benchmarks()) sources.push_back(benchmark->gpu_source());
  std::size_t next = 0;
  const auto [ns, calls] = probe_ns(0.03, [&] {
    (void)compile_or_die(sources[next++ % sources.size()]);
  });
  rows.push_back({"isa.assemble_us", ns / 1e3, "us",
                  "per rt::Context::compile over the 7 Table III kernels and the burst kernel",
                  calls});
}

// ======================================================================
// Workload runners.
// ======================================================================

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Report {
  Tally tally;
  std::vector<double> setup_s;
  Level low, high;
  std::string stat_before, stat_after;
  std::vector<Row> rows;
  JsonObject passes;
  std::string serve_mix = "null";
};

unsigned nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

int serve_high_sessions() { return static_cast<int>(std::max(1u, nproc() / 2)); }

/// Relative to the working directory, which run.py sets to the build
/// directory; short enough for sockaddr_un however deep the checkout is.
std::string socket_path() { return "gpup_perf." + std::to_string(::getpid()) + ".sock"; }

/// Set-ups per run; setup_s is their median. A Table III set-up includes a
/// whole sweep; the others take milliseconds and vary with thread start-up
/// and page faults, so they repeat more.
int setup_reps(const std::string& workload) { return workload == "table3_paper" ? 3 : 15; }

/// Times `reps` cold set-ups and returns the state of the last: reps - 1
/// forked children each time one set-up, report it through a pipe and
/// exit, then this process sets up for the timed phase. Every sample thus
/// starts, as a user's first set-up does, in a process with no workload
/// state yet. Repeated in one process, set-ups after the first two took
/// 4-5 ms longer: glibc had raised its mmap threshold when the first 16 MiB
/// device memories were freed, so later ones came from the heap and were
/// cleared by calloc. Must be called before the workload starts a thread.
/// A child whose warm-up ops failed fails one op here.
template <typename T>
std::unique_ptr<T> cold_setups(int reps, const std::function<std::unique_ptr<T>()>& setup,
                               Report& r) {
  for (int rep = 1; rep < reps; ++rep) {
    int fds[2];
    GPUP_CHECK(::pipe(fds) == 0);
    const pid_t child = ::fork();
    GPUP_CHECK(child >= 0);
    if (child == 0) {
      ::close(fds[0]);
      const std::uint64_t failed_before = r.tally.failed.load();
      const auto t0 = Clock::now();
      auto state = setup();
      const double elapsed = seconds_since(t0);
      const bool sent = ::write(fds[1], &elapsed, sizeof elapsed) == sizeof elapsed;
      state.reset();
      ::_exit(sent && r.tally.failed.load() == failed_before ? 0 : 1);
    }
    ::close(fds[1]);
    double elapsed = -1.0;
    const bool received = ::read(fds[0], &elapsed, sizeof elapsed) == sizeof elapsed;
    ::close(fds[0]);
    int status = 0;
    GPUP_CHECK(::waitpid(child, &status, 0) == child);
    if (received) r.setup_s.push_back(elapsed);
    r.tally.record(received && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "a set-up in a child process failed");
  }
  const auto t0 = Clock::now();
  auto state = setup();
  r.setup_s.push_back(seconds_since(t0));
  return state;
}

// ---- table3 -----------------------------------------------------------

void run_table3(const Args& args, double seconds, Report& r,
                std::vector<repro::CycleRow>& table3_rows) {
  const std::function<std::unique_ptr<std::vector<repro::CycleRow>>()> setup = [] {
    return std::make_unique<std::vector<repro::CycleRow>>(table3_setup());
  };
  table3_rows = *cold_setups(setup_reps(args.workload), setup, r);
  const Cells reference = cells_of(table3_rows);
  const BlockFn low = [&](double block_s, std::vector<double>& lat) {
    return run_ops_for(block_s, [&] { return table3_sweep(1, reference, r.tally); }, lat);
  };
  const BlockFn high = [&](double block_s, std::vector<double>& lat) {
    return run_ops_for(block_s, [&] { return table3_sweep(0, reference, r.tally); }, lat);
  };
  r.stat_before = proc_stat_cpu_line();
  timed_phase(seconds, low, 0.0, high, 0.0, r.low, r.high);
  r.stat_after = proc_stat_cpu_line();
}

void trace_table3(Report& r, const std::vector<repro::CycleRow>& table3_rows) {
  const Cells reference = cells_of(table3_rows);
  auto t0 = Clock::now();
  table3_sweep(1, reference, r.tally);
  const double serial_s = seconds_since(t0);
  t0 = Clock::now();
  table3_sweep(0, reference, r.tally);
  const double parallel_s = seconds_since(t0);

  // The composed sweep, alternately untraced and traced, so that the trace
  // overhead compares the same calls with and without their spans.
  constexpr int kSweeps = 3;
  Table3Trace t, untraced;
  PassTiming timing;
  timing.level = "low";
  for (int i = 0; i < kSweeps; ++i) {
    timing.untraced_us.push_back(
        timed_us([&] { composed_table3_sweep(table3_rows, false, untraced, r.tally); }));
    timing.traced_us.push_back(
        timed_us([&] { composed_table3_sweep(table3_rows, true, t, r.tally); }));
  }
  timing.layer_total_us = {{"isa", t.isa.total_us},
                           {"kern", t.kern.total_us},
                           {"sim", t.sim.total_us},
                           {"rv", t.rv.total_us}};
  r.passes.raw("table3_paper", timing.json());

  // Spans and counts are summed over the traced sweeps; each sweep's
  // counts are identical, so dividing by kSweeps gives one sweep's.
  auto per_sweep = [](std::uint64_t total) { return static_cast<double>(total) / kSweeps; };
  auto& rows = r.rows;
  rows.push_back({"sim.mcycles_per_s.cu1", t.cycles_cu1 / t.sim_cu1.total_us, "Mcycles/s",
                  "simulated cycles per host second in Gpu::try_launch, 7 one-CU cells",
                  t.sim_cu1.calls});
  rows.push_back({"sim.mcycles_per_s.cu8", t.cycles_cu8 / t.sim_cu8.total_us, "Mcycles/s",
                  "simulated cycles per host second in Gpu::try_launch, 7 eight-CU cells",
                  t.sim_cu8.calls});
  rows.push_back({"sim.launch_s", t.sim.total_us / kSweeps / 1e6, "s",
                  "Gpu::try_launch self time per serial sweep (28 cells)", t.sim.calls});
  rows.push_back({"rv.minstr_per_s", t.rv_instructions / t.rv.total_us, "Minstr/s",
                  "RISC-V instructions per host second in kern::run_riscv, 14 cells",
                  t.rv.calls});
  rows.push_back({"kern.prepare_s", t.kern.total_us / kSweeps / 1e6, "s",
                  "Benchmark::prepare incl. upload, per serial sweep (28 cells)", t.kern.calls});
  const unsigned threads = nproc();
  rows.push_back({"table3.par_efficiency", serial_s / (parallel_s * threads), "ratio",
                  "serial sweep / (default sweep x " + std::to_string(threads) + " threads)", 2});
  rows.push_back({"sim.cycles_total", per_sweep(t.cycles), "cycles",
                  "simulated cycles summed over the 28 G-GPU cells", 28});
  rows.push_back({"sim.stall_scoreboard", per_sweep(t.stall_scoreboard), "slots",
                  "issue slots lost to hazards, 28 cells", 28});
  rows.push_back({"sim.stall_mem_queue", per_sweep(t.stall_mem_queue), "slots",
                  "issue slots lost to full memory queues, 28 cells", 28});
  rows.push_back({"sim.stall_no_wavefront", per_sweep(t.stall_no_wavefront), "slots",
                  "issue slots with no ready wavefront, 28 cells", 28});
  const auto accesses = t.cache_hits + t.cache_misses;
  rows.push_back({"sim.cache_hit_frac",
                  accesses == 0 ? 0.0 : static_cast<double>(t.cache_hits) / accesses,
                  "ratio", "shared-cache hits / accesses, 28 cells", accesses});
}

// ---- inproc -----------------------------------------------------------

/// One set-up: construction, then one op per level with the threads placed
/// as in the timed phase.
std::unique_ptr<Inproc> inproc_setup(const Args& args, Report& r) {
  auto state = std::make_unique<Inproc>(args.seed);
  const Placement placement(1);
  state->low_op(r.tally);
  state->burst_op(r.tally);
  return state;
}

void run_inproc(const Args& args, double seconds, Report& r) {
  const std::function<std::unique_ptr<Inproc>()> setup = [&] { return inproc_setup(args, r); };
  auto state = cold_setups(setup_reps(args.workload), setup, r);
  const Placement placement(1);
  const BlockFn low = [&](double block_s, std::vector<double>& lat) {
    return run_ops_for(block_s, [&] { return state->low_op(r.tally); }, lat);
  };
  const BlockFn high = [&](double block_s, std::vector<double>& lat) {
    return run_ops_for(block_s, [&] { return state->burst_op(r.tally); }, lat);
  };
  r.stat_before = proc_stat_cpu_line();
  timed_phase(seconds, low, 0.25, high, 0.25, r.low, r.high);
  r.stat_after = proc_stat_cpu_line();
  state->check_readbacks(r.tally);
}

void trace_inproc(std::uint64_t seed, Report& r) {
  Inproc state(seed);
  const Placement placement(1);
  constexpr int kLowOps = 1000;
  constexpr int kBursts = 100;
  Span enqueue_low, wait_low, enqueue_high, settle;
  PassTiming timing;
  timing.level = "high";
  for (int i = 0; i < kLowOps; ++i) {
    state.low_op(r.tally);
    state.low_op(r.tally, &enqueue_low, &wait_low);
  }
  for (int i = 0; i < kBursts; ++i) {
    timing.untraced_us.push_back(timed_us([&] { state.burst_op(r.tally); }));
  }
  const auto before = state.context->snapshot();
  for (int i = 0; i < kBursts; ++i) {
    timing.traced_us.push_back(
        timed_us([&] { state.burst_op(r.tally, &enqueue_high, &settle); }));
  }
  const auto after = state.context->snapshot();
  state.check_readbacks(r.tally);
  timing.layer_total_us = {{"rt.enqueue", enqueue_high.total_us},
                           {"rt.release_to_settle", settle.total_us}};
  r.passes.raw("inproc_burst", timing.json());

  Span enqueue_all = enqueue_low;
  enqueue_all.total_us += enqueue_high.total_us;
  enqueue_all.calls += enqueue_high.calls;
  enqueue_all.call_us.insert(enqueue_all.call_us.end(), enqueue_high.call_us.begin(),
                             enqueue_high.call_us.end());
  auto& rows = r.rows;
  rows.push_back(latency_row("rt.enqueue_us", enqueue_all,
                             "per CommandQueue::enqueue_kernel, .low and .high ops"));
  rows.push_back(latency_row("rt.wait_us.low", wait_low,
                             "per Event::wait on a single outstanding launch"));
  rows.push_back(latency_row("rt.release_to_settle_us", settle,
                             "gate release to the last of 256 events settled, per burst"));
  const double launches = static_cast<double>(kBursts * kBurstTenants * kBurstLaunches);
  const double closes = static_cast<double>(
      (after.batch_close_drained_total - before.batch_close_drained_total) +
      (after.batch_close_incompatible_total - before.batch_close_incompatible_total) +
      (after.batch_close_unamortized_total - before.batch_close_unamortized_total) +
      (after.batch_close_size_cap_total - before.batch_close_size_cap_total) +
      (after.batch_close_cycle_cap_total - before.batch_close_cycle_cap_total));
  rows.push_back({"rt.batch.fused_frac",
                  (after.launches_batched_total - before.launches_batched_total) / launches,
                  "ratio", "launches carried by fused batches / launches, .high bursts",
                  static_cast<std::uint64_t>(launches)});
  const std::array<std::pair<const char*, std::uint64_t>, 5> reasons = {{
      {"drained", after.batch_close_drained_total - before.batch_close_drained_total},
      {"incompatible",
       after.batch_close_incompatible_total - before.batch_close_incompatible_total},
      {"unamortized", after.batch_close_unamortized_total - before.batch_close_unamortized_total},
      {"size_cap", after.batch_close_size_cap_total - before.batch_close_size_cap_total},
      {"cycle_cap", after.batch_close_cycle_cap_total - before.batch_close_cycle_cap_total},
  }};
  for (const auto& [reason, count] : reasons) {
    rows.push_back({std::string("rt.batch.close.") + reason + "_frac",
                    closes == 0 ? 0.0 : static_cast<double>(count) / closes, "ratio",
                    "batch closes for this reason / all closes, .high bursts",
                    static_cast<std::uint64_t>(closes)});
  }
}

// ---- serve ------------------------------------------------------------

/// One set-up: daemon start, session handshakes, then one round of each
/// size per session with the threads placed as in the timed phase.
std::unique_ptr<Served> serve_setup(const Args& args, Report& r) {
  auto served = std::make_unique<Served>(args.seed, serve_high_sessions(), socket_path());
  const Placement placement(serve_high_sessions());
  for (auto& session : served->sessions) {
    serve_round(*session, r.tally, nullptr, RoundSize::kSmall);
    serve_round(*session, r.tally, nullptr, RoundSize::kLarge);
  }
  return served;
}

void run_serve(const Args& args, double seconds, Report& r) {
  const std::function<std::unique_ptr<Served>()> setup = [&] { return serve_setup(args, r); };
  auto served = cold_setups(setup_reps(args.workload), setup, r);
  const int high_sessions = serve_high_sessions();
  const Placement placement(high_sessions);
  const BlockFn low = [&](double block_s, std::vector<double>& lat) {
    return serve_block(*served, 1, block_s, lat, r.tally);
  };
  const BlockFn high = [&](double block_s, std::vector<double>& lat) {
    return serve_block(*served, high_sessions, block_s, lat, r.tally);
  };
  r.stat_before = proc_stat_cpu_line();
  timed_phase(seconds, low, 0.25, high, 0.25, r.low, r.high);
  r.stat_after = proc_stat_cpu_line();
  r.serve_mix = serve_mix_json(*served, "timed phase");
}

void trace_serve(std::uint64_t seed, Report& r) {
  Served served(seed, serve_high_sessions(), socket_path());
  const Placement placement(serve_high_sessions());
  Session& session = *served.sessions[0];
  constexpr int kRounds = 1000;
  RoundTrace trace;
  PassTiming timing;
  timing.level = "low";
  for (int i = 0; i < kRounds; ++i) {
    timing.untraced_us.push_back(timed_us([&] { serve_round(session, r.tally); }));
  }
  const std::uint64_t frames_before = frames_total(session.client);
  for (int i = 0; i < kRounds; ++i) {
    timing.traced_us.push_back(timed_us([&] { serve_round(session, r.tally, &trace); }));
  }
  const std::uint64_t frames_after = frames_total(session.client);
  timing.layer_total_us = {{"serve.write", trace.write.total_us},
                           {"serve.launch", trace.launch.total_us},
                           {"serve.read", trace.read.total_us},
                           {"serve.wait", trace.wait.total_us}};
  r.passes.raw("serve_rounds", timing.json());

  const std::uint64_t rounds_before =
      std::accumulate(served.sessions.begin(), served.sessions.end(), std::uint64_t{0},
                      [](std::uint64_t sum, const auto& s) { return sum + s->rounds; });
  const auto before = served.daemon->context().snapshot();
  std::vector<double> lat;
  serve_block(served, serve_high_sessions(), 0.5, lat, r.tally);
  const auto after = served.daemon->context().snapshot();
  const std::uint64_t rounds_after =
      std::accumulate(served.sessions.begin(), served.sessions.end(), std::uint64_t{0},
                      [](std::uint64_t sum, const auto& s) { return sum + s->rounds; });

  auto& rows = r.rows;
  rows.push_back(latency_row("serve.rtt_us.write", trace.write, "per Client::write"));
  rows.push_back(latency_row("serve.rtt_us.launch", trace.launch, "per Client::launch"));
  rows.push_back(latency_row("serve.rtt_us.read", trace.read, "per Client::read"));
  rows.push_back(latency_row("serve.rtt_us.wait", trace.wait,
                             "per Client::wait on the round's read"));
  // The second metrics request is itself one frame.
  rows.push_back({"serve.frames_per_round",
                  static_cast<double>(frames_after - frames_before - 1) / kRounds, "count",
                  "daemon frames_total delta per .low round", kRounds});
  const double high_rounds = static_cast<double>(rounds_after - rounds_before);
  rows.push_back({"serve.rt.fused_frac",
                  high_rounds == 0
                      ? 0.0
                      : (after.launches_batched_total - before.launches_batched_total) /
                            high_rounds,
                  "ratio", "daemon launches carried by fused batches / launches, .high rounds",
                  static_cast<std::uint64_t>(high_rounds)});
  if (r.serve_mix == "null") r.serve_mix = serve_mix_json(served, "traced pass");
}

// ---- main -------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && args.seconds > 0 &&
         (args.workload == "table3_paper" || args.workload == "inproc_burst" ||
          args.workload == "serve_rounds");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gpup_perf --workload table3_paper|inproc_burst|serve_rounds "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Report r;
  std::vector<repro::CycleRow> table3_rows;
  // A traced run spends half its time on the untraced loop (latency tails)
  // and the rest on the traced passes and probes.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  if (args.workload == "table3_paper") {
    run_table3(args, seconds, r, table3_rows);
  } else if (args.workload == "inproc_burst") {
    run_inproc(args, seconds, r);
  } else {
    run_serve(args, seconds, r);
  }
  const std::uint64_t rss_kb = peak_rss_kb();

  if (args.trace) {
    if (table3_rows.empty()) table3_rows = table3_setup();
    trace_table3(r, table3_rows);
    trace_inproc(args.seed, r);
    trace_serve(args.seed, r);
    probe_scheduler(r.rows);
    probe_codec(r.rows);
    probe_sim(r.rows, r.tally);
    probe_assemble(r.rows);
  }

  // Every generator thread has been joined: the tally is quiescent.
  JsonObject out;
  out.str("workload", args.workload)
      .count("seed", args.seed)
      .count("nproc", nproc())
      .count("attempted", r.tally.attempted.load())
      .count("failed", r.tally.failed.load())
      .raw("errors", json_array(r.tally.errors))
      .raw("setup_s", json_array(r.setup_s))
      .raw("low", r.low.json())
      .raw("high", r.high.json())
      .count("peak_rss_kb", rss_kb)
      .str("proc_stat_before", r.stat_before)
      .str("proc_stat_after", r.stat_after)
      .raw("table3_cells", json_array(cells_of(table3_rows)))
      .raw("serve_mix", r.serve_mix)
      .raw("rows", rows_json(r.rows))
      .raw("passes", r.passes.dump());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
