package pkgstream

import (
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/rebalance"
	"pkgstream/internal/route"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// Network transport surface: PKG across real TCP boundaries, plus the
// rebalancing baseline discussed (and rejected) in the paper's §II.B.

// NetWorker is a TCP server holding partial counts for routed keys.
type NetWorker = transport.Worker

// NetSource is the routed, credit-flow-controlled TCP sender
// (internal/edge.Wire): SendTuple routes one tuple with a partitioner
// driven by the source's own local load estimate, SendPartial ships a
// flushed partial to a final host, Watermark(source, wm) broadcasts an
// event-time promise behind the data it covers, and a dropped
// connection is redialed with bounded backoff. Point queries go over
// NetQuery with the source's Candidates.
type NetSource = edge.Wire

// NetMode selects the network source's partitioning strategy.
type NetMode = route.Strategy

// Network partitioning modes.
const (
	// NetPKG routes with partial key grouping on a local load estimate.
	NetPKG = route.StrategyPKG
	// NetKG routes with a single hash.
	NetKG = route.StrategyKG
	// NetSG routes round-robin.
	NetSG = route.StrategySG
	// NetDChoices routes with frequency-aware PKG: the source's own
	// Space-Saving sketch widens hot keys beyond two workers.
	NetDChoices = route.StrategyDChoices
	// NetWChoices spreads keys above the hot threshold over all workers.
	NetWChoices = route.StrategyWChoices
)

// NetSourceOptions is the fully parameterized dial configuration —
// including the credit window, batching, and SketchPath, which
// checkpoints the frequency-aware modes' sketch across source restarts
// (restored on dial, written on Close). Set ModeSet to dial NetKG,
// whose value is the zero Mode.
type NetSourceOptions = edge.WireOptions

// NetHandler is the pluggable processing side of a TCP worker; every
// decoded wire frame dispatches to it (calls are serialized).
type NetHandler = transport.Handler

// NetWindowResult is one closed (key, window) pair drained from a
// remote windowed final node.
type NetWindowResult = wire.WindowResult

// NetPartial is the wire form of one flushed (key, window) partial
// accumulator — what NetSource.SendPartial ships to a final host.
type NetPartial = wire.Partial

// NetTuple is the wire form of a stream tuple — what
// NetSource.SendTuple ships to a worker or partial host.
type NetTuple = wire.Tuple

// DialNetSourceOpts dials a source with full options (sketch
// checkpointing, credit window, batching, hot-key knobs).
func DialNetSourceOpts(addrs []string, o NetSourceOptions) (*NetSource, error) {
	return edge.DialWire(addrs, o)
}

// ListenNetHandler starts a TCP worker dispatching to a custom handler
// — e.g. a WindowFinalHost, making the node a windowed final stage.
func ListenNetHandler(addr string, h NetHandler) (*NetWorker, error) {
	return transport.ListenHandler(addr, h)
}

// NetDrainResults polls a windowed final node until every source has
// finished, then pages out its closed (key, window) results.
func NetDrainResults(addr string, timeout time.Duration) ([]NetWindowResult, error) {
	return transport.DrainResults(addr, timeout)
}

// NetSubscribeResults registers with a windowed final node for PUSH
// delivery and accumulates the pushed closed-window results until the
// node reports done — the drain-free replacement for NetDrainResults:
// results arrive the moment windows close, with no poll interval in
// the latency path.
func NetSubscribeResults(addr string, timeout time.Duration) ([]NetWindowResult, error) {
	return transport.SubscribeResults(addr, timeout)
}

// ListenNetWorker starts a worker on addr ("127.0.0.1:0" for ephemeral).
func ListenNetWorker(addr string) (*NetWorker, error) {
	return transport.ListenWorker(addr)
}

// DialNetSource connects a source to the given worker addresses with
// the paper's two hash choices. All sources of a stream must share the
// seed (their hash functions must agree); start decorrelates shuffle
// round-robins.
func DialNetSource(addrs []string, mode NetMode, seed uint64, start int) (*NetSource, error) {
	return edge.DialWire(addrs, edge.WireOptions{Mode: mode, ModeSet: true, Seed: seed, Start: start})
}

// DialNetSourceD is DialNetSource generalized to d hash choices for PKG
// ("Greedy-d"; 0 selects 2, d beyond the worker count clamps to it);
// point queries then probe a key's d candidates.
func DialNetSourceD(addrs []string, mode NetMode, seed uint64, start, d int) (*NetSource, error) {
	return edge.DialWire(addrs, edge.WireOptions{Mode: mode, ModeSet: true, Seed: seed, Start: start, D: d})
}

// NetQuery answers a distributed point query: it probes the listed
// candidate workers (the source's d hash choices under PKG — two for
// DialNetSource, d for DialNetSourceD) and sums their partial counts.
func NetQuery(addrs []string, key uint64, candidates []int) (int64, error) {
	return transport.Query(addrs, key, candidates)
}

// RebalancingKG is key grouping with Flux-style periodic key migration —
// the §II.B alternative, for comparison against PKG.
type RebalancingKG = rebalance.Partitioner

// RebalanceConfig parameterizes RebalancingKG.
type RebalanceConfig = rebalance.Config

// NewRebalancingKG returns a rebalancing key-grouping partitioner.
func NewRebalancingKG(cfg RebalanceConfig) (*RebalancingKG, error) {
	return rebalance.New(cfg)
}
