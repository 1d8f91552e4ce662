// hot_pipe, cold_mixed and federation_tcp: seeded closed loops against
// one SchedulerService over in-memory pipes, or against a ShardRouter
// in front of three colocated shards over TCP loopback.
//
// Every client is a synchronous caller, like a SchedulerClient user: it
// writes one request frame, blocks for the response frame, checks the
// answer bit for bit against a reference solved during input
// generation, and only then sends its next request.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "layers.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"
#include "serve/socket.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = dls::serve;
namespace obs = dls::obs;
using dls::codec::Bytes;

/// Set-ups timed per run besides those of the measured rounds; the
/// median of all is reported.
constexpr int kSetupTrials = 35;
/// Untraced runs measure this many rounds, each on a fresh system.
constexpr int kRounds = 5;
constexpr double kWarmupS = 0.5;
/// Throughput and CPU per request are taken per window; the median
/// window is reported, so one scheduler hiccup cannot move the figure.
constexpr double kWindowS = 0.5;
/// Latency samples kept per client and window.
constexpr std::size_t kWindowSamples = 4096;
constexpr std::size_t kShards = 3;
constexpr std::size_t kReplication = 2;
using dls::analysis::kWHi;
using dls::analysis::kWLo;
using dls::analysis::kZHi;
using dls::analysis::kZLo;

struct Spec {
  /// Chain lengths and their weights; interleaved over pool ranks.
  std::vector<std::pair<std::size_t, int>> lengths;
  std::size_t pool = 0;
  double zipf = 0.0;  ///< exponent of the rank skew; 0 = uniform
  double pay_share = 0.0;
  double multi_share = 0.0;
  std::size_t multi_pool = 0;
  bool federation = false;
  /// Report the outside / stage-sum / residual split of the client p50.
  bool attribute = false;
};

Spec spec_for(const Options& options) {
  Spec spec;
  if (options.workload == "hot_pipe") {
    // The pool fits the default 256-entry cache: every request after
    // the first of its topology is a hit.
    spec.lengths = {{64, 1}};
    spec.pool = 128;
    spec.attribute = true;
  } else if (options.workload == "cold_mixed") {
    // Four times the default cache, skewed so about half the
    // single-load requests hit.
    spec.lengths = {{64, 10}, {512, 7}, {4096, 3}};
    spec.pool = 1024;
    spec.zipf = 0.7;
    spec.pay_share = 0.25;
    spec.multi_share = 0.15;
    spec.multi_pool = 256;
    spec.attribute = true;
  } else {
    spec.lengths = {{64, 3}, {512, 2}};
    spec.pool = 1024;
    spec.zipf = 0.7;
    spec.pay_share = 0.20;
    spec.federation = true;
  }
  if (options.tiny) {
    spec.pool = std::max<std::size_t>(16, spec.pool / 8);
    spec.multi_pool /= 8;
  }
  return spec;
}

/// Smooth weighted round robin: every window of the pool carries the
/// length mix in proportion, so the Zipf head holds the same lengths on
/// every seed and seeds vary only the instances.
std::vector<std::size_t> length_by_rank(const Spec& spec) {
  int total = 0;
  for (const auto& [length, weight] : spec.lengths) total += weight;
  std::vector<int> current(spec.lengths.size(), 0);
  std::vector<std::size_t> out;
  out.reserve(spec.pool);
  for (std::size_t r = 0; r < spec.pool; ++r) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < spec.lengths.size(); ++i) {
      current[i] += spec.lengths[i].second;
      if (current[i] > current[best]) best = i;
    }
    current[best] -= total;
    out.push_back(spec.lengths[best].first);
  }
  return out;
}

struct Topology {
  std::vector<double> w;
  std::vector<double> z;
  std::vector<double> alpha;  ///< reference answer
  double makespan = 0.0;
  std::vector<double> payments;  ///< filled when the mix asks for payments
  double total_payment = 0.0;
};

struct Mix {
  serve::MultiScheduleRequest request;
  serve::MultiScheduleResponse reference;  ///< payment fields left 0
  std::vector<double> load_payments;
  double total_payment = 0.0;
};

struct Inputs {
  Spec spec;
  std::vector<Topology> pool;
  std::vector<double> zipf_cdf;
  std::vector<Mix> mixes;
  std::size_t max_chain = 0;
};

std::vector<double> to_vector(std::span<const double> s) {
  return {s.begin(), s.end()};
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  in.spec = spec;
  const dls::core::MechanismConfig mechanism;
  dls::common::Rng rng(derive_seed(seed, 1));
  for (const std::size_t length : length_by_rank(spec)) {
    const auto network = dls::net::LinearNetwork::random(length, rng, kWLo,
                                                         kWHi, kZLo, kZHi);
    Topology t;
    t.w = to_vector(network.processing_times());
    t.z = to_vector(network.link_times());
    const dls::dlt::LinearSolution solution =
        dls::dlt::solve_linear_boundary(network);
    t.alpha = solution.alpha;
    t.makespan = solution.makespan;
    if (spec.pay_share > 0.0) {
      const dls::core::DlsLblResult assessment = dls::core::assess_compliant(
          network, network.processing_times(), mechanism);
      for (const dls::core::Assessment& a : assessment.processors) {
        t.payments.push_back(a.money.payment);
      }
      t.total_payment = assessment.total_payment;
    }
    in.max_chain = std::max(in.max_chain, length);
    in.pool.push_back(std::move(t));
  }

  double total = 0.0;
  for (std::size_t r = 0; r < spec.pool; ++r) {
    total += spec.zipf > 0.0
                 ? std::pow(static_cast<double>(r + 1), -spec.zipf)
                 : 1.0;
    in.zipf_cdf.push_back(total);
  }
  for (double& c : in.zipf_cdf) c /= total;

  for (std::size_t k = 0; k < spec.multi_pool; ++k) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(8, 64));
    const auto network = dls::net::LinearNetwork::random(length, rng, kWLo,
                                                         kWHi, kZLo, kZHi);
    Mix mix;
    serve::MultiScheduleRequest& request = mix.request;
    request.w = to_vector(network.processing_times());
    request.z = to_vector(network.link_times());
    const auto loads = rng.uniform_int(2, 16);
    std::vector<dls::multiload::LoadSpec> specs;
    for (std::int64_t l = 0; l < loads; ++l) {
      serve::MultiLoadItem item;
      item.load_id = static_cast<std::uint64_t>(l) + 1;
      item.size = rng.uniform(0.5, 2.0);
      item.release = l % 3 == 0 ? rng.uniform(0.0, 1.0) : 0.0;
      request.loads.push_back(item);
      specs.push_back({item.load_id, item.size, item.release, item.deadline});
    }
    // FIFO and interleaved dispatch alternate through the pool.
    request.policy = static_cast<std::uint8_t>(k % 2);
    request.installments = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    request.ingress_z = rng.bernoulli(0.5) ? 0.05 : 0.0;

    dls::multiload::MultiLoadConfig config;
    config.policy = static_cast<dls::multiload::DispatchPolicy>(request.policy);
    config.installments_per_load = request.installments;
    config.ingress_z = request.ingress_z;
    dls::multiload::MultiLoadSolver solver(network);
    const dls::multiload::MultiLoadSchedule schedule =
        solver.solve(specs, config);
    for (const dls::multiload::LoadOutcome& outcome : schedule.loads) {
      serve::MultiLoadResult result;
      result.load_id = outcome.spec.id;
      result.start = outcome.start;
      result.completion = outcome.completion;
      result.deadline_met = outcome.deadline_met;
      mix.reference.loads.push_back(result);
    }
    mix.reference.makespan = schedule.makespan;
    mix.reference.serialized_makespan = schedule.serialized_makespan;
    const dls::multiload::MultiLoadAssessment assessment =
        dls::multiload::assess_loads(network, network.processing_times(),
                                     specs, mechanism);
    for (const auto& load : assessment.loads) {
      mix.load_payments.push_back(load.total_payment);
    }
    mix.total_payment = assessment.total_payment;
    in.mixes.push_back(std::move(mix));
  }
  return in;
}

// ---------------------------------------------------------------------
// Request streams and the answer check.

struct Item {
  bool multi = false;
  std::uint32_t index = 0;
  bool payments = false;
};

class Stream {
 public:
  Stream(const Inputs& inputs, std::uint64_t seed)
      : inputs_(&inputs), rng_(seed) {}

  Item next() {
    const Spec& spec = inputs_->spec;
    Item item;
    const double kind = rng_.uniform01();
    item.payments = rng_.uniform01() < spec.pay_share;
    if (kind < spec.multi_share) {
      item.multi = true;
      item.index = static_cast<std::uint32_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(inputs_->mixes.size()) - 1));
      return item;
    }
    const auto& cdf = inputs_->zipf_cdf;
    const auto at = std::lower_bound(cdf.begin(), cdf.end(), rng_.uniform01());
    item.index = static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(at - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    return item;
  }

 private:
  const Inputs* inputs_;
  dls::common::Rng rng_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::size_t client) {
  return derive_seed(seed, 100 + client);
}

serve::ScheduleRequest single_request(const Inputs& in, const Item& item,
                                      std::uint64_t id) {
  const Topology& t = in.pool[item.index];
  serve::ScheduleRequest request;
  request.request_id = id;
  request.w = t.w;
  request.z = t.z;
  request.options.want_payments = item.payments;
  return request;
}

serve::MultiScheduleRequest multi_request(const Inputs& in, const Item& item,
                                          std::uint64_t id) {
  serve::MultiScheduleRequest request = in.mixes[item.index].request;
  request.request_id = id;
  request.want_payments = item.payments;
  return request;
}

Bytes request_frame(const Inputs& in, const Item& item, std::uint64_t id) {
  serve::Frame frame;
  if (item.multi) {
    frame.type = serve::FrameType::kMultiScheduleRequest;
    frame.payload =
        serve::encode_multi_schedule_request(multi_request(in, item, id));
  } else {
    frame.type = serve::FrameType::kScheduleRequest;
    frame.payload = serve::encode_schedule_request(single_request(in, item, id));
  }
  return serve::encode_frame(frame);
}

enum class Verdict { kOk, kRefused, kWrong };

struct Check {
  Verdict verdict = Verdict::kOk;
  std::string what;
};

Check check_single(const Inputs& in, const Item& item, std::uint64_t id,
                   const serve::Frame& frame) {
  if (frame.type != serve::FrameType::kScheduleResponse) {
    return {Verdict::kWrong, "response frame type " + serve::to_string(frame.type)};
  }
  const serve::ScheduleResponse r = serve::decode_schedule_response(frame.payload);
  if (r.request_id != id) {
    return {Verdict::kWrong, "response for request " +
                                 std::to_string(r.request_id) + " to request " +
                                 std::to_string(id)};
  }
  if (r.status != serve::ScheduleStatus::kOk) {
    return {Verdict::kRefused, "status " + serve::to_string(r.status) + " " + r.error};
  }
  const Topology& t = in.pool[item.index];
  bool right = same_bits(r.alpha, t.alpha) && same_bits(r.makespan, t.makespan);
  if (item.payments) {
    right = right && same_bits(r.payments, t.payments) &&
            same_bits(r.total_payment, t.total_payment);
  } else {
    right = right && r.payments.empty() && r.total_payment == 0.0;
  }
  if (right) return {};
  return {Verdict::kWrong, "single-load answer for pool entry " +
                               std::to_string(item.index) +
                               " differs from solve_linear_boundary" +
                               (item.payments ? " / assess_compliant" : "")};
}

Check check_multi(const Inputs& in, const Item& item, std::uint64_t id,
                  const serve::Frame& frame) {
  if (frame.type != serve::FrameType::kMultiScheduleResponse) {
    return {Verdict::kWrong, "response frame type " + serve::to_string(frame.type)};
  }
  const serve::MultiScheduleResponse r =
      serve::decode_multi_schedule_response(frame.payload);
  if (r.request_id != id) {
    return {Verdict::kWrong, "multi-load response for request " +
                                 std::to_string(r.request_id) + " to request " +
                                 std::to_string(id)};
  }
  if (r.status != serve::ScheduleStatus::kOk) {
    return {Verdict::kRefused, "status " + serve::to_string(r.status) + " " + r.error};
  }
  const Mix& mix = in.mixes[item.index];
  const serve::MultiScheduleResponse& ref = mix.reference;
  bool right = r.loads.size() == ref.loads.size() &&
               same_bits(r.makespan, ref.makespan) &&
               same_bits(r.serialized_makespan, ref.serialized_makespan) &&
               same_bits(r.total_payment,
                         item.payments ? mix.total_payment : 0.0);
  for (std::size_t i = 0; right && i < r.loads.size(); ++i) {
    const serve::MultiLoadResult& a = r.loads[i];
    const serve::MultiLoadResult& b = ref.loads[i];
    right = a.load_id == b.load_id && same_bits(a.start, b.start) &&
            same_bits(a.completion, b.completion) &&
            a.deadline_met == b.deadline_met &&
            same_bits(a.total_payment,
                      item.payments ? mix.load_payments[i] : 0.0);
  }
  if (right) return {};
  return {Verdict::kWrong, "multi-load answer for mix " +
                               std::to_string(item.index) +
                               " differs from MultiLoadSolver::solve" +
                               (item.payments ? " / assess_loads" : "")};
}

// ---------------------------------------------------------------------
// The system under test and its clients.

/// Response counts of one client connection, kept by its own thread.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;  ///< non-kOk answers and transport failures
  std::uint64_t wrong = 0;
  std::string first_error;

  void fail(const std::string& what, bool is_wrong) {
    ++(is_wrong ? wrong : refused);
    if (first_error.empty()) first_error = what;
  }
};

class LoadClient {
 public:
  LoadClient(const Inputs& inputs, std::unique_ptr<serve::Transport> transport,
             std::uint64_t seed)
      : inputs_(inputs), transport_(std::move(transport)), stream_(inputs, seed) {}

  /// Writes the stream's next request, or `forced` instead. False when
  /// the connection failed.
  bool send(const Item* forced = nullptr) {
    item_ = forced != nullptr ? *forced : stream_.next();
    id_ = ++next_id_;  // fresh ids 1, 2, 3, ... as SchedulerClient sends
    const Bytes frame = request_frame(inputs_, item_, id_);
    ++tally.attempted;
    try {
      sent_at_ = now_s();
      transport_->write(frame);
      written_at_ = now_s();
    } catch (const std::exception& e) {
      tally.fail(std::string("write: ") + e.what(), false);
      return false;
    }
    return true;
  }

  /// The last round trip, valid when it ended kOk.
  struct Timing {
    bool ok = false;
    double done_at = 0.0;  ///< now_s() when the response was read
    double latency_us = 0.0;
    double write_ns = 0.0;
    double wait_us = 0.0;  ///< write returned -> response header arrived
  };

  /// Blocks for the response to the last send() and checks it. False
  /// when the connection failed.
  bool receive() {
    last = Timing{};
    try {
      buffer_.resize(serve::kFrameHeaderSize);
      if (!transport_->read_exact(buffer_)) {
        throw serve::TransportError("connection closed before the response");
      }
      const double header_at = now_s();
      const std::uint32_t length = static_cast<std::uint32_t>(buffer_[6]) |
                                   static_cast<std::uint32_t>(buffer_[7]) << 8 |
                                   static_cast<std::uint32_t>(buffer_[8]) << 16 |
                                   static_cast<std::uint32_t>(buffer_[9]) << 24;
      if (length > serve::kMaxFramePayload) {
        throw serve::TransportError("oversized response frame");
      }
      buffer_.resize(serve::kFrameHeaderSize + length);
      if (length > 0 &&
          !transport_->read_exact(std::span<std::uint8_t>(buffer_).subspan(
              serve::kFrameHeaderSize))) {
        throw serve::TransportError("connection closed inside the response");
      }
      const double done_at = now_s();
      const serve::Frame frame = serve::decode_frame(buffer_);
      const Check check = item_.multi ? check_multi(inputs_, item_, id_, frame)
                                      : check_single(inputs_, item_, id_, frame);
      if (check.verdict != Verdict::kOk) {
        tally.fail(check.what, check.verdict == Verdict::kWrong);
        return true;
      }
      ok.fetch_add(1, std::memory_order_relaxed);
      last = Timing{true, done_at, (done_at - sent_at_) * 1e6,
                    (written_at_ - sent_at_) * 1e9,
                    (header_at - written_at_) * 1e6};
      return true;
    } catch (const std::exception& e) {
      tally.fail(std::string("read: ") + e.what(), false);
      return false;
    }
  }

  bool round_trip() { return send() && receive(); }

  void close() noexcept { transport_->close(); }

  std::atomic<std::uint64_t> ok{0};
  Tally tally;
  Timing last;

 private:
  const Inputs& inputs_;
  std::unique_ptr<serve::Transport> transport_;
  Stream stream_;
  std::uint64_t next_id_ = 0;
  Item item_;
  std::uint64_t id_ = 0;
  double sent_at_ = 0.0;
  double written_at_ = 0.0;
  Bytes buffer_;
};

/// Counters of the services and the router, summed over shards.
struct StatsSnapshot {
  serve::ServiceStats service;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  serve::RouterStats router;
};

/// One SchedulerService behind pipes, or a ShardRouter (R=2) over three
/// colocated shards behind a TCP listener.
class System {
 public:
  explicit System(const Spec& spec) {
    const std::size_t shards = spec.federation ? kShards : 1;
    for (std::size_t s = 0; s < shards; ++s) {
      services_.push_back(
          std::make_unique<serve::SchedulerService>(serve::ServiceConfig{}));
    }
    if (!spec.federation) return;
    serve::RouterConfig config;
    config.shard_count = kShards;
    config.replication = kReplication;
    config.connect = [this](std::size_t shard) -> std::unique_ptr<serve::Transport> {
      return std::make_unique<serve::PipeEnd>(services_[shard]->connect());
    };
    for (const auto& service : services_) config.local.push_back(service.get());
    router_ = std::make_unique<serve::ShardRouter>(std::move(config));
    listener_ = serve::SocketListener::listen_tcp(0);
  }

  ~System() { stop(); }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  std::unique_ptr<serve::Transport> open_client() {
    if (!router_) {
      return std::make_unique<serve::PipeEnd>(services_.front()->connect());
    }
    auto client = serve::connect_tcp("127.0.0.1", listener_.port());
    auto accepted = listener_.accept(5.0);
    if (!accepted) throw std::runtime_error("TCP accept timed out");
    router_->adopt(std::move(accepted));
    return client;
  }

  void stop() {
    if (router_) router_->stop();
    listener_.close();
    for (const auto& service : services_) service->stop();
  }

  StatsSnapshot stats() const {
    StatsSnapshot s;
    for (const auto& service : services_) {
      const serve::ServiceStats one = service->stats();
      s.service.received += one.received;
      s.service.ok += one.ok;
      s.service.shed += one.shed;
      s.service.expired += one.expired;
      s.service.errors += one.errors;
      s.service.degraded += one.degraded;
      s.service.batched += one.batched;
      s.service.batch_groups += one.batch_groups;
      s.service.batch_deduped += one.batch_deduped;
      s.cache_hits += service->cache().hits();
      s.cache_misses += service->cache().misses();
      s.cache_evictions += service->cache().evictions();
    }
    if (router_) s.router = router_->stats();
    return s;
  }

  std::size_t cache_capacity() const {
    return services_.front()->cache().capacity();
  }

 private:
  std::vector<std::unique_ptr<serve::SchedulerService>> services_;
  std::unique_ptr<serve::ShardRouter> router_;
  serve::SocketListener listener_;
};

struct Live {
  std::unique_ptr<System> system;
  std::vector<std::unique_ptr<LoadClient>> clients;

  /// Hangs up every client, folds its counts into `result`, stops the
  /// system.
  void close(Result& result) {
    for (const auto& client : clients) {
      client->close();
      result.attempted += client->tally.attempted;
      result.failed += client->tally.refused + client->tally.wrong;
      result.wrong += client->tally.wrong;
      if (result.first_error.empty()) result.first_error = client->tally.first_error;
    }
    clients.clear();
    if (system) system->stop();
    system.reset();
  }
};

/// One set-up: construct the system, open every client connection and
/// wait until each client's first request came back kOk. Returns the
/// seconds taken; keeps the live system in `keep` when given.
double setup_trial(const Inputs& inputs, const Options& options, Result& result,
                   Live* keep) {
  Live live;
  const double t0 = now_s();
  live.system = std::make_unique<System>(inputs.spec);
  for (std::size_t c = 0; c < options.clients; ++c) {
    live.clients.push_back(std::make_unique<LoadClient>(
        inputs, live.system->open_client(), stream_seed(options.seed, c)));
  }
  // Every seed's first requests have one shape (the top-ranked
  // topologies, no payments), so set-up time does not vary with the seed.
  for (std::size_t c = 0; c < live.clients.size(); ++c) {
    const Item first{false, static_cast<std::uint32_t>(c % inputs.pool.size()),
                     false};
    live.clients[c]->send(&first);
  }
  for (const auto& client : live.clients) client->receive();
  const double seconds = now_s() - t0;
  if (keep != nullptr) {
    *keep = std::move(live);
  } else {
    live.close(result);
  }
  return seconds;
}

struct LoopOut {
  std::vector<double> throughput;      ///< kOk per second, per window
  std::vector<double> cpu_us_per_req;  ///< server CPU per kOk, per window
  std::vector<double> allocs_per_req;  ///< server allocations per kOk
  std::vector<double> p50_us;          ///< client latency, per window
  std::vector<double> p99_us;
  std::vector<double> write_ns;        ///< sampled (record_io only)
  std::vector<double> wait_us;
  std::uint64_t latency_samples = 0;
  double threads = 0.0;
};

/// Runs every client as a closed loop on its own thread for `warmup_s`,
/// then measures `seconds` in windows. Server CPU and allocations are
/// the process totals minus those of the load generator (client threads
/// and this one). Latency percentiles are taken per window too, so a
/// burst of outside interference moves only its own windows.
LoopOut run_loop(Live& live, double warmup_s, double seconds, bool record_io,
                 TraceFile* trace) {
  const std::size_t n = live.clients.size();
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kWindowS)));
  const double window = seconds / static_cast<double>(windows);
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<double> measure_start{0.0};
  std::atomic<std::size_t> ready{0};
  std::vector<const AllocSlot*> slots(n, nullptr);
  // [client][window] latency samples; [client] write / wait samples.
  std::vector<std::vector<Reservoir>> latency(n);
  std::vector<Reservoir> writes, waits;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t w = 0; w < windows; ++w) {
      latency[c].emplace_back(kWindowSamples, derive_seed(c, w));
    }
    writes.emplace_back(kWindowSamples, derive_seed(c, 1u << 20));
    waits.emplace_back(kWindowSamples, derive_seed(c, 1u << 21));
  }
  std::vector<std::thread> crew;
  crew.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    crew.emplace_back([&, c] {
      slots[c] = &this_thread_alloc_slot();
      ready.fetch_add(1, std::memory_order_release);
      LoadClient& client = *live.clients[c];
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.round_trip()) break;
        if (!client.last.ok || !measuring.load(std::memory_order_acquire)) continue;
        const double since = client.last.done_at - measure_start.load(std::memory_order_relaxed);
        const auto w = static_cast<std::ptrdiff_t>(std::floor(since / window));
        if (w < 0 || w >= static_cast<std::ptrdiff_t>(windows)) continue;
        latency[c][static_cast<std::size_t>(w)].add(client.last.latency_us);
        if (record_io) {
          writes[c].add(client.last.write_ns);
          waits[c].add(client.last.wait_us);
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  std::vector<clockid_t> clocks;
  for (std::thread& t : crew) clocks.push_back(thread_cpu_clock(t.native_handle()));
  const AllocSlot& own_slot = this_thread_alloc_slot();

  struct Snap {
    double t = 0.0;
    std::uint64_t ok = 0;
    double cpu = 0.0;
    double generator_cpu = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t generator_allocs = 0;
  };
  const auto snap = [&] {
    Snap s;
    s.t = now_s();
    s.cpu = process_cpu_s();
    s.generator_cpu = clock_cpu_s(CLOCK_THREAD_CPUTIME_ID);
    s.allocs = process_allocs();
    s.generator_allocs = own_slot.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < n; ++c) {
      s.ok += live.clients[c]->ok.load(std::memory_order_relaxed);
      s.generator_cpu += clock_cpu_s(clocks[c]);
      s.generator_allocs += slots[c]->load(std::memory_order_relaxed);
    }
    return s;
  };

  LoopOut out;
  sleep_until_s(now_s() + warmup_s);
  Snap prev = snap();
  const Snap first = prev;
  measure_start.store(first.t, std::memory_order_relaxed);
  measuring.store(true, std::memory_order_release);
  for (std::size_t w = 0; w < windows; ++w) {
    sleep_until_s(first.t + window * static_cast<double>(w + 1));
    const Snap cur = snap();
    const auto done = static_cast<double>(cur.ok - prev.ok);
    if (done > 0.0) {
      out.throughput.push_back(done / (cur.t - prev.t));
      out.cpu_us_per_req.push_back(
          ((cur.cpu - prev.cpu) - (cur.generator_cpu - prev.generator_cpu)) *
          1e6 / done);
      out.allocs_per_req.push_back(
          static_cast<double>((cur.allocs - prev.allocs) -
                              (cur.generator_allocs - prev.generator_allocs)) /
          done);
    } else {
      out.throughput.push_back(0.0);
    }
    if (w == windows / 2) out.threads = proc_threads();
    if (trace != nullptr) trace->pump();
    prev = cur;
  }
  measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : crew) t.join();

  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> merged;
    for (std::size_t c = 0; c < n; ++c) {
      merged.insert(merged.end(), latency[c][w].values().begin(),
                    latency[c][w].values().end());
      out.latency_samples += latency[c][w].seen();
    }
    if (merged.empty()) continue;
    out.p50_us.push_back(quantile(merged, 0.50));
    out.p99_us.push_back(quantile(merged, 0.99));
  }
  for (std::size_t c = 0; c < n; ++c) {
    out.write_ns.insert(out.write_ns.end(), writes[c].values().begin(),
                        writes[c].values().end());
    out.wait_us.insert(out.wait_us.end(), waits[c].values().begin(),
                       waits[c].values().end());
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// ---------------------------------------------------------------------
// (b): the generated request stream, replayed one call at a time
// through each layer's public functions.

template <typename F>
double timed_ns(F&& call) {
  const std::uint64_t t0 = now_ns();
  call();
  return static_cast<double>(now_ns() - t0);
}

void replay_layers(const Inputs& in, const Options& options,
                   std::size_t cache_capacity, double miss_share,
                   double budget_s, Result& result) {
  const dls::core::MechanismConfig mechanism;
  ChainLayers chain(in.max_chain);
  serve::SolveCache cache(cache_capacity);
  std::vector<Stream> streams;
  std::vector<std::uint64_t> ids(options.clients, 0);
  for (std::size_t c = 0; c < options.clients; ++c) {
    streams.emplace_back(in, stream_seed(options.seed, c));
  }

  Samples frame_encode, frame_decode, request_decode, response_encode, key,
      lookup, multi_decode, multi_encode, multi_solve_us, multi_assess_us;
  double frame_bytes = 0.0;
  // Absolute per-stage costs (ns) of the server's path, for the
  // attribution of the client p50.
  Samples s_frame, s_decode, s_build, s_key, s_lookup, s_solve, s_assess,
      s_encode, s_reply;
  Samples m_frame, m_decode, m_build, m_solve, m_assess, m_encode, m_reply;
  std::uint64_t singles = 0, multis = 0, single_pays = 0, multi_pays = 0;
  std::vector<ChainView> seen;
  std::set<std::uint32_t> seen_index;

  const std::size_t max_items = options.tiny ? 200 : 4000;
  const double deadline = now_s() + 0.75 * budget_s;
  for (std::size_t i = 0; i < max_items && (i < 50 || now_s() < deadline); ++i) {
    const std::size_t c = i % options.clients;
    const Item item = streams[c].next();
    const std::uint64_t id = ++ids[c];
    const std::string args = span_args(id, c);
    DLS_SPAN_ARGS("perfbench.request", args);

    serve::Frame frame;
    frame.type = item.multi ? serve::FrameType::kMultiScheduleRequest
                            : serve::FrameType::kScheduleRequest;
    frame.payload =
        item.multi ? serve::encode_multi_schedule_request(multi_request(in, item, id))
                   : serve::encode_schedule_request(single_request(in, item, id));
    Bytes wire;
    serve::Frame got;
    double ns = 0.0;
    {
      DLS_SPAN_ARGS("perfbench.frame.encode", args);
      frame_encode.add(timed_ns([&] { wire = serve::encode_frame(frame); }));
    }
    {
      DLS_SPAN_ARGS("perfbench.frame.decode", args);
      ns = timed_ns([&] { got = serve::decode_frame(wire); });
      frame_decode.add(ns);
      (item.multi ? m_frame : s_frame).add(ns);
    }

    serve::Frame reply;
    if (!item.multi) {
      ++singles;
      single_pays += item.payments ? 1 : 0;
      serve::ScheduleRequest request;
      {
        DLS_SPAN_ARGS("perfbench.wire.request_decode", args);
        ns = timed_ns([&] { request = serve::decode_schedule_request(got.payload); });
        request_decode.add(ns);
        s_decode.add(ns);
      }
      Bytes k;
      {
        DLS_SPAN_ARGS("perfbench.wire.key", args);
        ns = timed_ns([&] { k = serve::canonical_topology_key(request.w, request.z); });
        key.add(ns);
        s_key.add(ns);
      }
      serve::SolveCache::Value hit;
      {
        DLS_SPAN_ARGS("perfbench.cache.lookup", args);
        ns = timed_ns([&] { hit = cache.lookup(k); });
        lookup.add(ns);
        s_lookup.add(ns);
      }
      const ChainLayers::Cost cost = chain.run(request.w, request.z, args);
      s_build.add(cost.build_ns);
      s_solve.add(cost.solve_ns);
      s_assess.add(cost.assess_ns);
      if (!hit) {
        cache.insert(k, std::make_shared<dls::dlt::LinearSolution>(chain.solution()));
      }
      if (seen_index.insert(item.index).second && seen.size() < 64) {
        seen.push_back({in.pool[item.index].w, in.pool[item.index].z});
      }
      serve::ScheduleResponse response;
      response.request_id = id;
      response.alpha = chain.solution().alpha;
      response.makespan = chain.solution().makespan;
      if (item.payments) {
        for (const auto& a : chain.assessment().processors) {
          response.payments.push_back(a.money.payment);
        }
        response.total_payment = chain.assessment().total_payment;
      }
      reply.type = serve::FrameType::kScheduleResponse;
      {
        DLS_SPAN_ARGS("perfbench.wire.response_encode", args);
        ns = timed_ns([&] { reply.payload = serve::encode_schedule_response(response); });
        response_encode.add(ns);
        s_encode.add(ns);
      }
    } else {
      ++multis;
      multi_pays += item.payments ? 1 : 0;
      serve::MultiScheduleRequest request;
      {
        DLS_SPAN_ARGS("perfbench.wire.multi_decode", args);
        ns = timed_ns([&] { request = serve::decode_multi_schedule_request(got.payload); });
        multi_decode.add(ns);
        m_decode.add(ns);
      }
      std::optional<dls::net::LinearNetwork> network;
      {
        DLS_SPAN_ARGS("perfbench.net.build", args);
        m_build.add(timed_ns([&] { network.emplace(request.w, request.z); }));
      }
      std::vector<dls::multiload::LoadSpec> specs;
      for (const serve::MultiLoadItem& l : request.loads) {
        specs.push_back({l.load_id, l.size, l.release, l.deadline});
      }
      dls::multiload::MultiLoadConfig config;
      config.policy = static_cast<dls::multiload::DispatchPolicy>(request.policy);
      config.installments_per_load = request.installments;
      config.ingress_z = request.ingress_z;
      serve::MultiScheduleResponse response;
      {
        DLS_SPAN_ARGS("perfbench.multiload.solve", args);
        ns = timed_ns([&] {
          dls::multiload::MultiLoadSolver solver(*network);
          const dls::multiload::MultiLoadSchedule schedule = solver.solve(specs, config);
          response.makespan = schedule.makespan;
          response.serialized_makespan = schedule.serialized_makespan;
          for (const auto& outcome : schedule.loads) {
            response.loads.push_back({outcome.spec.id, outcome.start,
                                      outcome.completion, outcome.deadline_met,
                                      0.0});
          }
        });
        multi_solve_us.add(ns * 1e-3);
        m_solve.add(ns);
      }
      {
        DLS_SPAN_ARGS("perfbench.multiload.assess", args);
        ns = timed_ns([&] {
          const auto assessment = dls::multiload::assess_loads(
              *network, network->processing_times(), specs, mechanism);
          if (item.payments) response.total_payment = assessment.total_payment;
        });
        multi_assess_us.add(ns * 1e-3);
        m_assess.add(ns);
      }
      response.request_id = id;
      reply.type = serve::FrameType::kMultiScheduleResponse;
      {
        DLS_SPAN_ARGS("perfbench.wire.multi_encode", args);
        ns = timed_ns([&] {
          reply.payload = serve::encode_multi_schedule_response(response);
        });
        multi_encode.add(ns);
        m_encode.add(ns);
      }
    }
    Bytes reply_wire;
    {
      DLS_SPAN_ARGS("perfbench.frame.encode", args);
      ns = timed_ns([&] { reply_wire = serve::encode_frame(reply); });
      frame_encode.add(ns);
      (item.multi ? m_reply : s_reply).add(ns);
    }
    {
      DLS_SPAN_ARGS("perfbench.frame.decode", args);
      frame_decode.add(timed_ns([&] { got = serve::decode_frame(reply_wire); }));
    }
    frame_bytes += static_cast<double>(wire.size() + reply_wire.size());
  }

  const std::uint64_t replayed = singles + multis;
  result.add("frame.encode_ns", frame_encode.p50(), "ns", frame_encode.count());
  result.add("frame.decode_ns", frame_decode.p50(), "ns", frame_decode.count());
  result.add("frame.bytes_per_req", ratio(frame_bytes, static_cast<double>(replayed)),
             "bytes", replayed);
  if (singles > 0) {
    result.add("wire.req_decode_ns", request_decode.p50(), "ns", request_decode.count());
    result.add("wire.resp_encode_ns", response_encode.p50(), "ns", response_encode.count());
    result.add("wire.key_ns", key.p50(), "ns", key.count());
    result.add("cache.lookup_ns", lookup.p50(), "ns", lookup.count());
  }
  if (multis > 0) {
    result.add("wire.multi_decode_ns", multi_decode.p50(), "ns", multi_decode.count());
    result.add("wire.multi_encode_ns", multi_encode.p50(), "ns", multi_encode.count());
    result.add("multiload.solve_us", multi_solve_us.p50(), "us", multi_solve_us.count());
    result.add("multiload.assess_us", multi_assess_us.p50(), "us", multi_assess_us.count());
  }
  chain.report(result);

  if (in.spec.attribute) {
    // Σ stage p50 × share of requests that take the stage.
    const double single_ns =
        s_frame.p50() + s_decode.p50() + s_build.p50() + s_key.p50() +
        s_lookup.p50() + miss_share * s_solve.p50() +
        ratio(single_pays, singles) * s_assess.p50() + s_encode.p50() +
        s_reply.p50();
    const double multi_ns =
        multis == 0 ? 0.0
                    : m_frame.p50() + m_decode.p50() + m_build.p50() +
                          m_solve.p50() + ratio(multi_pays, multis) * m_assess.p50() +
                          m_encode.p50() + m_reply.p50();
    const double multi_share = ratio(multis, replayed);
    result.add("service.stage_sum_p50_us",
               ((1.0 - multi_share) * single_ns + multi_share * multi_ns) * 1e-3,
               "us", replayed);
  }

  probe_kernels(seen, options.clients, options.seed,
                std::max(0.0, deadline + 0.25 * budget_s - now_s()), result);
}

/// End-to-end figures over one or more rounds, each round a fresh
/// system (thread placement and wake-up patterns are fixed when a system
/// starts): medians over every window of every round.
struct EndToEnd {
  std::vector<double> throughput;  ///< every window of every round
  std::vector<double> cpu_us_per_req;
  std::vector<double> p50_us;  ///< every window of every round
  std::vector<double> p99_us;
  std::uint64_t latency_samples = 0;

  void add(const LoopOut& loop) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(throughput, loop.throughput);
    append(cpu_us_per_req, loop.cpu_us_per_req);
    append(p50_us, loop.p50_us);
    append(p99_us, loop.p99_us);
    latency_samples += loop.latency_samples;
  }

  void report(Result& result) const {
    result.add("throughput_rps", median(throughput), "req/s", throughput.size());
    result.add("latency_p50_us", median(p50_us), "us", latency_samples);
    result.add("latency_p99_us", median(p99_us), "us", latency_samples);
    result.add("server_cpu_us_per_req", median(cpu_us_per_req), "us",
               cpu_us_per_req.size());
    std::string windows;
    for (const double x : throughput) {
      windows += (windows.empty() ? "" : ",") + std::to_string(std::lround(x));
    }
    result.info["window_rps"] = "[" + windows + "]";
  }
};

}  // namespace

bool is_served_workload(const std::string& name) {
  return name == "hot_pipe" || name == "cold_mixed" || name == "federation_tcp";
}

Result run_served(const Options& options) {
  const Spec spec = spec_for(options);
  const Inputs inputs = make_inputs(spec, options.seed);
  Result result;
  result.info["pool"] = std::to_string(spec.pool);
  result.info["loop"] = "\"closed\"";
  result.info["transport"] = spec.federation ? "\"tcp\"" : "\"pipe\"";

  std::vector<double> setup_s;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    setup_s.push_back(setup_trial(inputs, options, result, nullptr));
  }
  Live live;
  if (!options.trace) {
    const int rounds = options.tiny ? 2 : kRounds;
    EndToEnd e2e;
    for (int round = 0; round < rounds; ++round) {
      setup_s.push_back(setup_trial(inputs, options, result, &live));
      LoopOut loop = run_loop(live, kWarmupS, options.seconds / rounds, false,
                              nullptr);
      live.close(result);
      e2e.add(loop);
    }
    e2e.report(result);
  } else {
    setup_s.push_back(setup_trial(inputs, options, result, &live));
    // (a): the same closed loop untraced, then traced; counters are
    // deltas over the traced part.
    const double part = options.seconds / 3.0;
    LoopOut plain = run_loop(live, kWarmupS, part, false, nullptr);
    EndToEnd e2e;
    e2e.add(plain);
    e2e.report(result);
    const StatsSnapshot before = live.system->stats();
    const std::size_t cache_capacity = live.system->cache_capacity();
    obs::MetricsRegistry::global().reset();
    obs::TraceSink::global().clear();
    obs::set_active(true);
    TraceFile trace(options.trace_out);
    LoopOut traced = run_loop(live, 0.1, part, true, &trace);
    const StatsSnapshot after = live.system->stats();
    const obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
    live.close(result);

    const serve::ServiceStats& a = after.service;
    const serve::ServiceStats& b = before.service;
    const std::uint64_t received = a.received - b.received;
    const std::uint64_t ok = a.ok - b.ok;
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const std::uint64_t misses = after.cache_misses - before.cache_misses;
    const std::uint64_t groups = a.batch_groups - b.batch_groups;
    const double hit_share = ratio(hits, hits + misses);
    result.add("cache.hit_share", hit_share, "ratio", hits + misses);
    result.add("cache.evictions_per_req",
               ratio(after.cache_evictions - before.cache_evictions, ok), "count", ok);
    result.add("service.batched_share", ratio(a.batched - b.batched, ok), "ratio", ok);
    result.add("service.lanes_per_batch",
               ratio((a.batched - b.batched) - (a.batch_deduped - b.batch_deduped), groups),
               "count", groups);
    result.add("service.shed_share", ratio(a.shed - b.shed, received), "ratio", received);
    result.add("service.degraded_share", ratio(a.degraded - b.degraded, received), "ratio",
               received);
    result.add("service.expired_share", ratio(a.expired - b.expired, received), "ratio",
               received);
    result.add("service.error_share", ratio(a.errors - b.errors, received), "ratio",
               received);

    double server_p50 = 0.0;
    const auto histogram = metrics.histograms.find("serve.request.latency_us");
    if (histogram != metrics.histograms.end()) {
      server_p50 = obs::histogram_quantile(histogram->second, 0.5);
      result.add("service.server_p50_us", server_p50, "us", histogram->second.count);
      result.add("service.server_p99_us",
                 obs::histogram_quantile(histogram->second, 0.99), "us",
                 histogram->second.count);
    }
    if (spec.federation) {
      const serve::RouterStats& r = after.router;
      const serve::RouterStats& q = before.router;
      const std::uint64_t routed = r.received - q.received;
      const std::uint64_t checked = r.quorum_checked - q.quorum_checked;
      result.add("router.inline_share", ratio(r.inline_hits - q.inline_hits, routed),
                 "ratio", routed);
      result.add("router.replay_share", ratio(r.replayed - q.replayed, routed), "ratio",
                 routed);
      result.add("router.forwards_per_req", ratio(r.forwarded - q.forwarded, routed),
                 "count", routed);
      result.add("router.quorum_agreed_share",
                 ratio(r.quorum_agreed - q.quorum_agreed, checked), "ratio", checked);
      result.add("router.quorum_divergence",
                 static_cast<double>(r.quorum_divergence - q.quorum_divergence), "count",
                 checked);
      result.add("router.forward_failures",
                 static_cast<double>(r.forward_failures - q.forward_failures), "count",
                 routed);
      result.add("socket.client_write_ns", quantile(traced.write_ns, 0.5), "ns",
                 traced.write_ns.size());
      result.add("socket.client_wait_us", quantile(traced.wait_us, 0.5), "us",
                 traced.wait_us.size());
      if (r.quorum_divergence != q.quorum_divergence) {
        result.note_failure("quorum divergence between replicas", true);
      }
    }
    result.add("proc.allocs_per_req", median(plain.allocs_per_req), "count",
               plain.allocs_per_req.size());
    result.add("proc.threads", plain.threads, "count", 1);
    result.add("obs.traced_slowdown",
               ratio(median(plain.throughput), median(traced.throughput)) - 1.0,
               "ratio", traced.throughput.size());

    // (b), on an otherwise idle process.
    replay_layers(inputs, options, cache_capacity, 1.0 - hit_share, part, result);
    if (spec.attribute) {
      const double client_p50 = median(traced.p50_us);
      const double stage_sum = result.metrics["service.stage_sum_p50_us"].value;
      result.add("service.outside_p50_us", client_p50 - server_p50, "us",
                 traced.latency_samples);
      result.add("service.residual_p50_us", server_p50 - stage_sum, "us",
                 traced.latency_samples);
    }
    if (!trace.finish()) throw std::runtime_error("cannot write " + options.trace_out);
    obs::set_active(false);
  }
  result.add("setup_s", median(setup_s), "s", setup_s.size());
  result.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return result;
}

}  // namespace perfbench
