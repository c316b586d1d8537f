// Package service is the concurrent buffered-routing service behind
// cmd/merlind: an HTTP/JSON front over the repository's flows, with a
// bounded job queue, a worker pool that reuses engines per worker, an LRU
// result cache keyed by a canonical problem fingerprint, and a metrics
// registry exposed on /v1/stats. Everything is stdlib-only.
//
// The service treats a routing request as a pure function of
// (net, flow, profile knobs): nets are deterministic problems, so equal
// fingerprints mean equal answers and the result cache never needs
// invalidation, only eviction.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"merlin/internal/core"
	"merlin/internal/degrade"
	"merlin/internal/flows"
	"merlin/internal/net"
	"merlin/internal/tree"
)

// ErrBadRequest wraps request validation failures; the HTTP layer maps it to
// a 400 response.
var ErrBadRequest = errors.New("bad request")

// RouteRequest is the body of POST /v1/route: one net plus optional knob
// overrides (zero values mean "profile default", mirroring cmd/merlin's
// flags).
type RouteRequest struct {
	Net *net.Net `json:"net"`
	// Flow selects the algorithm: "I", "II" or "III" (default "III").
	Flow string `json:"flow,omitempty"`
	// Alpha overrides the Cα branching factor (Flow III).
	Alpha int `json:"alpha,omitempty"`
	// MaxCands overrides the candidate-location budget.
	MaxCands int `json:"max_cands,omitempty"`
	// AreaBudget enables variant I's total buffer area budget (λ²).
	AreaBudget float64 `json:"area_budget,omitempty"`
	// ReqFloor enables variant II: min-area subject to this required-time
	// floor at the driver (ns).
	ReqFloor float64 `json:"req_floor,omitempty"`
	// MaxLoops bounds MERLIN's outer iterations.
	MaxLoops int `json:"max_loops,omitempty"`
	// TimeoutMS caps this request's compute time; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache (read and write).
	NoCache bool `json:"no_cache,omitempty"`
	// Budget bounds this request's compute resources; nil uses the server
	// defaults. Exceeding a budget returns 422 (code "budget_exceeded").
	Budget *Budget `json:"budget,omitempty"`
	// AllowDegraded admits degraded answers (Flow III only): when the full
	// MERLIN search exhausts its budget slice, panics, or the server is
	// browning out under load, the request is served by a cheaper ladder
	// tier (nobubble → lttree → vangin) instead of failing. The response's
	// tier/degraded fields report what actually ran.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
	// MinTier bounds how far down the ladder a degraded answer may come
	// from: "full", "nobubble", "lttree" or "vangin" (the default floor when
	// AllowDegraded is set). Requires AllowDegraded.
	MinTier string `json:"min_tier,omitempty"`
}

// Budget is the wire form of a per-request resource budget. It bounds
// compute, not answers: a run that fits its budget returns exactly what an
// unbudgeted run would, and a result served from the cache costs nothing and
// is returned regardless of budget. Fields are clamped to the server's hard
// cap (Config.MaxSolutionsCap).
type Budget struct {
	// MaxSolutions caps the DP's retained-solution count, its dominant
	// memory term; 0 uses the server default of 4,000,000.
	MaxSolutions int `json:"max_solutions,omitempty"`
	// MaxSinks rejects nets with more sinks than this before any compute;
	// 0 defers to the server-wide Config.MaxSinks.
	MaxSinks int `json:"max_sinks,omitempty"`
	// MaxWallMS caps the search's wall-clock time. Unlike timeout_ms it
	// reports 422 budget_exceeded, not 504: "too big for its budget" rather
	// than "client gave up".
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
}

// RouteResponse is the body of a successful /v1/route reply.
type RouteResponse struct {
	Net                string          `json:"net"`
	Flow               string          `json:"flow"`
	DelayNS            float64         `json:"delay_ns"`
	ReqAtDriverInputNS float64         `json:"req_at_driver_input_ns"`
	CriticalSink       int             `json:"critical_sink"`
	BufferArea         float64         `json:"buffer_area_lambda2"`
	NumBuffers         int             `json:"num_buffers"`
	Wirelength         int64           `json:"wirelength_lambda"`
	Loops              int             `json:"loops,omitempty"`
	Tree               *TreeNode       `json:"tree"`
	Frontier           []FrontierPoint `json:"frontier,omitempty"`
	RuntimeMS          float64         `json:"runtime_ms"`
	Cached             bool            `json:"cached"`
	// Tier is the degradation-ladder rung that produced this answer (Flow
	// III only): "full", "nobubble", "lttree" or "vangin".
	Tier string `json:"tier,omitempty"`
	// Degraded reports that a rung below full served the answer.
	Degraded bool `json:"degraded,omitempty"`
	// Quality is the serving tier's expected solution quality relative to
	// full (1.0); pair it with req_at_driver_input_ns / buffer_area_lambda2
	// to judge the answer itself.
	Quality float64 `json:"quality,omitempty"`
	// TiersAttempted lists every ladder rung tried, best first, including
	// the one that served.
	TiersAttempted []string `json:"tiers_attempted,omitempty"`
	// TraceID names this request's trace, retrievable via GET /v1/trace/{id}
	// while the trace ring retains it. Empty when tracing is disabled. Each
	// response carries the id of the request that produced it — a cached
	// answer carries the cache hit's (short) trace, not the original
	// computation's.
	TraceID string `json:"trace_id,omitempty"`
}

// TreeNode is the wire form of one buffered-routing-tree vertex.
type TreeNode struct {
	Kind     string      `json:"kind"` // source | buffer | steiner | sink
	X        int64       `json:"x"`
	Y        int64       `json:"y"`
	Buffer   string      `json:"buffer,omitempty"` // library cell name
	Sink     *int        `json:"sink,omitempty"`   // net sink index
	Children []*TreeNode `json:"children,omitempty"`
}

// FrontierPoint is one solution of the final non-inferior curve (Flow III).
type FrontierPoint struct {
	LoadPF float64 `json:"load_pf"`
	ReqNS  float64 `json:"req_ns"`
	Area   float64 `json:"area_lambda2"`
}

// parseFlow maps the wire name to a flow ID.
func parseFlow(name string) (flows.ID, error) {
	switch name {
	case "", "III", "3":
		return flows.FlowIII, nil
	case "I", "1":
		return flows.FlowI, nil
	case "II", "2":
		return flows.FlowII, nil
	}
	return 0, fmt.Errorf("%w: unknown flow %q (want I, II or III)", ErrBadRequest, name)
}

func flowLabel(f flows.ID) string {
	switch f {
	case flows.FlowI:
		return "I"
	case flows.FlowII:
		return "II"
	default:
		return "III"
	}
}

// prepare validates a request and resolves it to a flow plus a fully
// determined profile — the same ProfileFor + override logic cmd/merlin
// applies, so a service answer matches a CLI run of the same net.
func (s *Server) prepare(req *RouteRequest) (flows.Profile, flows.ID, error) {
	if req.Net == nil {
		return flows.Profile{}, 0, fmt.Errorf("%w: missing net", ErrBadRequest)
	}
	if err := req.Net.Validate(); err != nil {
		return flows.Profile{}, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if s.cfg.MaxSinks > 0 && req.Net.N() > s.cfg.MaxSinks {
		return flows.Profile{}, 0, fmt.Errorf("%w: net has %d sinks, server limit is %d", ErrBadRequest, req.Net.N(), s.cfg.MaxSinks)
	}
	fl, err := parseFlow(req.Flow)
	if err != nil {
		return flows.Profile{}, 0, err
	}
	switch {
	case req.Alpha < 0:
		return flows.Profile{}, 0, fmt.Errorf("%w: alpha must be >= 0", ErrBadRequest)
	case req.MaxCands < 0:
		return flows.Profile{}, 0, fmt.Errorf("%w: max_cands must be >= 0", ErrBadRequest)
	case req.AreaBudget < 0:
		return flows.Profile{}, 0, fmt.Errorf("%w: area_budget must be >= 0", ErrBadRequest)
	case req.ReqFloor < 0:
		return flows.Profile{}, 0, fmt.Errorf("%w: req_floor must be >= 0", ErrBadRequest)
	case req.AreaBudget > 0 && req.ReqFloor > 0:
		return flows.Profile{}, 0, fmt.Errorf("%w: area_budget and req_floor select conflicting goal variants; set at most one", ErrBadRequest)
	}
	p := flows.ProfileFor(req.Net.N())
	if req.Alpha > 0 {
		p.Core.Alpha = req.Alpha
	}
	if req.MaxCands > 0 {
		p.MaxCands = req.MaxCands
	}
	if req.AreaBudget > 0 {
		p.Core.Goal = core.Goal{Mode: core.GoalMaxReq, AreaBudget: req.AreaBudget}
	}
	if req.ReqFloor > 0 {
		p.Core.Goal = core.Goal{Mode: core.GoalMinArea, ReqFloor: req.ReqFloor}
	}
	if req.MaxLoops > 0 {
		p.Core.MaxLoops = req.MaxLoops
	}
	b, err := s.resolveBudget(req)
	if err != nil {
		return flows.Profile{}, 0, err
	}
	p.Core.Budget = b
	if _, err := ladderFloor(req, fl); err != nil {
		return flows.Profile{}, 0, err
	}
	return p, fl, nil
}

// ladderFloor resolves the request's degradation knobs to the lowest
// ladder tier it admits: TierFull (no degradation) unless AllowDegraded,
// then MinTier or the bottom rung. The knobs are Flow III-only — the
// sequential flows ARE the lower rungs, so degrading them is meaningless.
func ladderFloor(req *RouteRequest, fl flows.ID) (degrade.Tier, error) {
	if !req.AllowDegraded {
		if req.MinTier != "" {
			return 0, fmt.Errorf("%w: min_tier requires allow_degraded", ErrBadRequest)
		}
		return degrade.TierFull, nil
	}
	if fl != flows.FlowIII {
		return 0, fmt.Errorf("%w: allow_degraded applies to flow III only", ErrBadRequest)
	}
	if req.MinTier == "" {
		return degrade.TierVanGin, nil
	}
	t, err := degrade.ParseTier(req.MinTier)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return t, nil
}

// tieredKey is the result-cache key of one (request, served tier) pair: the
// degradation knobs themselves stay out of cacheKeys — a full-tier answer
// is a full-tier answer whether or not the request would have accepted
// less — but the tier that actually served is part of the result identity.
// Non-ladder flows (I, II) use the empty tier.
func tieredKey(key, tier string) string { return key + "|" + tier }

// defaultMaxSolutions is the retained-solution budget of a request that
// carries none (core.Budget.MaxSolutions bounds the DP's dominant memory
// term).
const defaultMaxSolutions = 4_000_000

// resolveBudget folds the request's budget (if any) over the server-wide
// default and clamps the result to the hard cap, so one request can lower
// its own bounds but never raise them past what the operator allows.
// Exceeding a per-request sink budget is a budget error (422), while the
// server-wide Config.MaxSinks stays a validation error (400): the former is
// the client's own declared bound, the latter the server's contract.
func (s *Server) resolveBudget(req *RouteRequest) (core.Budget, error) {
	b := core.Budget{MaxSolutions: defaultMaxSolutions}
	if rb := req.Budget; rb != nil {
		if rb.MaxSolutions < 0 || rb.MaxSinks < 0 || rb.MaxWallMS < 0 {
			return core.Budget{}, fmt.Errorf("%w: budget fields must be >= 0", ErrBadRequest)
		}
		if rb.MaxSinks > 0 && req.Net.N() > rb.MaxSinks {
			return core.Budget{}, fmt.Errorf("%w: net has %d sinks, request budget allows %d",
				core.ErrBudgetExceeded, req.Net.N(), rb.MaxSinks)
		}
		if rb.MaxSolutions > 0 {
			b.MaxSolutions = rb.MaxSolutions
		}
		if rb.MaxWallMS > 0 {
			b.MaxWallTime = time.Duration(rb.MaxWallMS) * time.Millisecond
		}
	}
	if hard := s.cfg.MaxSolutionsCap; hard > 0 && b.MaxSolutions > hard {
		b.MaxSolutions = hard
	}
	// The server-wide wall cap clamps every request's effective wall budget,
	// including client deadlines folded in from X-Merlin-Deadline-Ms. Work
	// that cannot finish inside the cap fails as budget_exceeded_wall — the
	// truthful "too slow" — rather than running past what anyone will wait.
	if cap := s.cfg.MaxWallCap; cap > 0 && (b.MaxWallTime == 0 || b.MaxWallTime > cap) {
		b.MaxWallTime = cap
	}
	return b, nil
}

func appendKeyI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendKeyF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// cacheKeys returns the result-cache key and the engine-cache key of a
// prepared request.
//
// The engine key covers everything that shapes an engine's memo tables: the
// net's canonical bytes, the technology, the library ladder, the candidate
// budget, and every core option except the extraction goal and the outer-
// loop bound — those two only steer which curve point is picked, so engines
// may be reused across them (see flows.RunFlowIIIOn). The profile's derived
// PTree/LT/VG knobs are functions of N and these inputs and need no bytes of
// their own. The result key is the engine key's input plus exactly that
// varying tail: flow, goal and loop bound.
func cacheKeys(req *RouteRequest, fl flows.ID, p flows.Profile) (resultKey, engineKey string) {
	b := make([]byte, 0, 64+32*req.Net.N())
	b = req.Net.AppendCanonical(b)
	b = net.AppendCanonicalTech(b, p.Tech)
	b = net.AppendCanonicalGate(b, p.Lib.Driver)
	b = appendKeyI64(b, int64(len(p.Lib.Buffers)))
	for _, g := range p.Lib.Buffers {
		b = net.AppendCanonicalGate(b, g)
	}
	b = appendKeyI64(b, int64(p.MaxCands))
	b = appendKeyI64(b, int64(p.Core.Alpha))
	b = appendKeyI64(b, int64(p.Core.MaxSols))
	b = appendKeyI64(b, int64(p.Core.TransferHops))
	b = appendKeyI64(b, boolI64(p.Core.BufferAtSteiner))
	b = appendKeyI64(b, int64(p.Core.MaxInternalChildren))
	b = appendKeyI64(b, boolI64(p.Core.ForceGroupBuffers))
	b = appendKeyI64(b, int64(len(p.Core.Chis)))
	for _, c := range p.Core.Chis {
		b = appendKeyI64(b, int64(c))
	}
	eng := sha256.Sum256(b)

	b = appendKeyI64(b, int64(fl))
	b = appendKeyI64(b, int64(p.Core.Goal.Mode))
	b = appendKeyF64(b, p.Core.Goal.AreaBudget)
	b = appendKeyF64(b, p.Core.Goal.ReqFloor)
	b = appendKeyI64(b, int64(p.Core.MaxLoops))
	res := sha256.Sum256(b)
	return hex.EncodeToString(res[:]), hex.EncodeToString(eng[:])
}

func boolI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// buildResponse converts a flow result to its wire form.
func buildResponse(req *RouteRequest, fl flows.ID, res flows.Result) *RouteResponse {
	out := &RouteResponse{
		Net:                req.Net.Name,
		Flow:               flowLabel(fl),
		DelayNS:            res.Eval.Delay,
		ReqAtDriverInputNS: res.Eval.ReqAtDriverInput,
		CriticalSink:       res.Eval.CriticalSink,
		BufferArea:         res.Eval.BufferArea,
		NumBuffers:         res.Tree.NumBuffers(),
		Wirelength:         res.Eval.Wirelength,
		Loops:              res.Loops,
		Tree:               treeJSON(res.Tree.Root),
		RuntimeMS:          float64(res.Runtime.Microseconds()) / 1000,
	}
	if res.Frontier != nil {
		for _, s := range res.Frontier.Sols {
			out.Frontier = append(out.Frontier, FrontierPoint{LoadPF: s.Load, ReqNS: s.Req, Area: s.Area})
		}
	}
	return out
}

func treeJSON(n *tree.Node) *TreeNode {
	if n == nil {
		return nil
	}
	out := &TreeNode{Kind: n.Kind.String(), X: n.Pos.X, Y: n.Pos.Y}
	if n.Kind == tree.KindBuffer {
		out.Buffer = n.Buffer.Name
	}
	if n.Kind == tree.KindSink {
		idx := n.SinkIdx
		out.Sink = &idx
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, treeJSON(c))
	}
	return out
}
