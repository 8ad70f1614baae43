#include "simt/graph.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "simt/device.h"
#include "simt/fault.h"
#include "simt/profiler.h"

namespace simt {

namespace {

// Live-graph registry: the C ABI checks handles against this instead of
// dereferencing whatever pointer it was handed (use-after-destroy
// becomes a result code, not UB).
std::mutex g_graphs_mu;
std::vector<const Graph*> g_graphs;

std::atomic<std::uint64_t> g_graph_uid{1};

const char* node_kind_name(StreamOp::Kind k) {
  switch (k) {
    case StreamOp::Kind::kKernel: return "kernel";
    case StreamOp::Kind::kMemcpy: return "memcpy";
    case StreamOp::Kind::kMemset: return "memset";
    case StreamOp::Kind::kHostFn: return "host-fn";
    case StreamOp::Kind::kEventRecord: return "event-record";
    case StreamOp::Kind::kEventWait: return "event-wait";
    case StreamOp::Kind::kAlloc: return "alloc";
    case StreamOp::Kind::kFree: return "free";
    case StreamOp::Kind::kGraph: return "graph";
  }
  return "?";
}

/// Flow id for the arrow chaining replay k to replay k+1 of one graph.
/// Bit 62 keeps these disjoint from event flows ((uid<<20)+gen) and
/// peer-copy flows (bit 63).
std::uint64_t chain_flow_id(std::uint64_t graph_uid, std::uint64_t k) {
  return (1ull << 62) | (graph_uid << 20) | (k & 0xFFFFF);
}

}  // namespace

Graph::Graph(Device& dev)
    : dev_(dev), uid_(g_graph_uid.fetch_add(1, std::memory_order_relaxed)) {
  std::lock_guard lock(g_graphs_mu);
  g_graphs.push_back(this);
}

Graph::~Graph() {
  {
    std::lock_guard lock(g_graphs_mu);
    g_graphs.erase(std::remove(g_graphs.begin(), g_graphs.end(), this),
                   g_graphs.end());
  }
  // Graph-owned memory (captured malloc_async) keeps its address across
  // replays and is returned to the device heap only now.
  for (void* p : owned_allocs_) {
    try {
      dev_.memory().deallocate(p);
    } catch (...) {
      // Teardown must not throw; a corrupted block already produced a
      // sanitizer diagnostic where it was detected.
    }
  }
}

void Graph::add_node(StreamOp op) { nodes_.push_back(std::move(op)); }

void Graph::own_allocation(void* p) { owned_allocs_.push_back(p); }

bool Graph::owns_allocation(const void* p) const {
  for (const void* q : owned_allocs_)
    if (q == p) return true;
  return false;
}

std::vector<Graph::NodeInfo> Graph::nodes() const {
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const StreamOp& n : nodes_) {
    NodeInfo info;
    info.kind = node_kind_name(n.kind);
    switch (n.kind) {
      case StreamOp::Kind::kKernel: info.name = n.params.name; break;
      case StreamOp::Kind::kMemcpy:
        info.name = copy_kind_label(n.copy_kind);
        break;
      case StreamOp::Kind::kMemset: info.name = "memset"; break;
      case StreamOp::Kind::kAlloc: info.name = "malloc_async"; break;
      case StreamOp::Kind::kFree: info.name = "free_async"; break;
      default: break;
    }
    info.bytes = n.bytes;
    out.push_back(std::move(info));
  }
  return out;
}

void Graph::instantiate() {
  std::lock_guard lock(run_mu_);
  instantiate_locked();
}

bool Graph::instantiated() const {
  std::lock_guard lock(run_mu_);
  return instantiated_;
}

std::uint64_t Graph::replay_count() const {
  std::lock_guard lock(run_mu_);
  return replays_;
}

void Graph::instantiate_locked() {
  if (instantiated_) return;
  if (fault_should_fire(FaultSite::kGraphInstantiate))
    throw std::runtime_error(
        "fault injection: graph instantiate failed (" +
        std::to_string(nodes_.size()) + " node(s) discarded)");
  for (StreamOp& n : nodes_) {
    switch (n.kind) {
      case StreamOp::Kind::kKernel:
        // The prepare step launch_sync pays on every submission, paid
        // once: replays run only Device::run_launch. A replayed kernel
        // enters no launch log (cudaGraphLaunch reports no per-kernel
        // results either).
        dev_.prepare_launch(n.params);
        n.params.log = false;
        break;
      case StreamOp::Kind::kEventRecord:
      case StreamOp::Kind::kEventWait:
        if (!dev_.exec_->event_alive(n.event))
          throw std::invalid_argument(
              "graph instantiate: captured event was destroyed");
        break;
      default:
        break;
    }
  }
  instantiated_ = true;
}

Graph::ReplayExtent Graph::execute_on(Stream& s, double& ts) {
  std::lock_guard run_lock(run_mu_);
  instantiate_locked();
  ReplayExtent ext;
  ext.start_ms = ts;
  for (StreamOp& n : nodes_) s.ex_.run_op(s, n, ts);
  replays_++;
  ext.end_ms = ts;
  ext.chain_flow_id = replays_ > 1 ? chain_flow_id(uid_, replays_ - 1) : 0;
  if (profiling_enabled()) {
    // A zero-duration fence closes each replay; the *next* replay's
    // umbrella span consumes its arrow, so chained replays are visibly
    // linked even when they land on different stream tracks.
    TraceSpan fence;
    fence.kind = SpanKind::kGraph;
    fence.name = "graph fence";
    fence.ts_ms = ts;
    fence.track = s.id_ + 1;
    fence.flow_id = chain_flow_id(uid_, replays_);
    fence.flow_out = true;
    Profiler::instance().record(dev_, fence);
  }
  return ext;
}

bool graph_alive(const Graph* g) {
  if (g == nullptr) return false;
  std::lock_guard lock(g_graphs_mu);
  return std::find(g_graphs.begin(), g_graphs.end(), g) != g_graphs.end();
}

void destroy_graph(Graph* g) {
  if (g == nullptr) return;
  if (!graph_alive(g))
    throw std::invalid_argument("destroy_graph: not a live graph");
  // Drain any in-flight replay before tearing the node list down.
  g->device().synchronize();
  delete g;
}

}  // namespace simt
