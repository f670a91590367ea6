// Package msrnet is a timing-optimization library for multisource
// (multidriver bus) nets, reproducing Lillis & Cheng, "Timing
// Optimization for Multisource Nets: Characterization and Optimal
// Repeater Insertion" (DAC'97 / IEEE TCAD vol. 18 no. 3, 1999).
//
// The library provides:
//
//   - the augmented RC-diameter (ARD) performance measure and its
//     linear-time computation under the Elmore delay model (paper §III);
//   - provably optimal repeater (bidirectional buffer) insertion for a
//     fixed routing topology with prescribed insertion points, under the
//     min-cost-subject-to-timing formulation, producing the full
//     cost/performance tradeoff suite (paper §IV);
//   - discrete driver sizing in the same framework (paper §V), plus the
//     documented extensions: inverting repeaters with polarity
//     feasibility and per-wire width selection;
//   - supporting substrates: rectilinear Steiner routing, random net
//     generation, a transient RC simulator for validation, JSON
//     persistence and SVG rendering.
//
// # Quick start
//
//	tech := msrnet.DefaultTech()
//	b := msrnet.NewBuilder(tech)
//	b.AddTerminal("cpu", 0, 0, msrnet.Roles{Source: true, Sink: true})
//	b.AddTerminal("dma", 9000, 1000, msrnet.Roles{Source: true, Sink: true})
//	b.AddTerminal("mem", 4000, 8000, msrnet.Roles{Sink: true})
//	net, err := b.AutoRoute()            // Steiner route + insertion points
//	...
//	suite, err := net.OptimizeRepeaters() // full cost/ARD tradeoff
//	best, ok := suite.MinCost(2.5)        // cheapest meeting ARD ≤ 2.5 ns
//
// Units: µm, pF, kΩ, ns (kΩ·pF = ns).
package msrnet

import (
	"fmt"
	"io"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/geom"
	"msrnet/internal/netio"
	"msrnet/internal/ptree"
	"msrnet/internal/rcsim"
	"msrnet/internal/rctree"
	"msrnet/internal/rsmt"
	"msrnet/internal/slew"
	"msrnet/internal/spef"
	"msrnet/internal/svgplot"
	"msrnet/internal/topo"
)

// Re-exported library types. These aliases make the public API
// self-contained while the implementation lives in internal packages.
type (
	// Tech bundles wire parasitics and the repeater/driver libraries.
	Tech = buslib.Tech
	// Wire holds per-µm parasitics.
	Wire = buslib.Wire
	// Buffer is a unidirectional buffer.
	Buffer = buslib.Buffer
	// Repeater is a bidirectional buffer with distinct A/B sides.
	Repeater = buslib.Repeater
	// Driver is a sizing option for a terminal's bus driver.
	Driver = buslib.Driver
	// Terminal carries a pin's electrical parameters.
	Terminal = buslib.Terminal
	// Assignment is a concrete optimization outcome: placed repeaters,
	// driver overrides and wire widths.
	Assignment = rctree.Assignment
	// Placed is a repeater at an insertion point with orientation.
	Placed = rctree.Placed
	// Suite is the Pareto cost/ARD tradeoff returned by the optimizer.
	Suite = core.Suite
	// RootSolution is one point of the tradeoff suite.
	RootSolution = core.RootSolution
	// OptimizeOptions configures the dynamic program.
	OptimizeOptions = core.Options
	// OptimizeStats reports dynamic-programming effort.
	OptimizeStats = core.Stats
	// Point is a planar location in µm.
	Point = geom.Point
	// Topology is the underlying routing-tree representation, exposed for
	// advanced use (custom traversals, direct node access).
	Topology = topo.Tree
)

// DefaultTech returns the experimental technology of the paper's §VI: a
// bidirectional repeater built from a pair of 1X buffers and a
// {1X, 2X, 3X, 4X} driver library. See DESIGN.md §4 for the provenance of
// the numeric values.
func DefaultTech() Tech { return buslib.Default() }

// DefaultTerminal returns the symmetric source+sink terminal model used
// in the paper's experiments (AAT = 0, Q folding in the output buffer).
func DefaultTerminal(name string) Terminal { return buslib.DefaultTerminal(name) }

// RepeaterFromPair builds a bidirectional repeater from two copies of a
// unidirectional buffer.
func RepeaterFromPair(b Buffer) Repeater { return buslib.RepeaterFromPair(b) }

// Roles declares how a terminal participates on the bus.
type Roles struct {
	Source bool
	Sink   bool
}

// Builder incrementally constructs a multisource net.
type Builder struct {
	tech  Tech
	names []string
	pts   []Point
	terms []Terminal
	// explicit topology (optional)
	edges [][2]int
}

// NewBuilder starts a net under the given technology.
func NewBuilder(tech Tech) *Builder {
	return &Builder{tech: tech}
}

// AddTerminal places a pin at (x, y) µm with default electrical
// parameters and the given roles, returning its terminal index.
func (b *Builder) AddTerminal(name string, x, y float64, roles Roles) int {
	t := buslib.DefaultTerminal(name)
	t.IsSource = roles.Source
	t.IsSink = roles.Sink
	return b.AddCustomTerminal(name, x, y, t)
}

// AddCustomTerminal places a pin with fully specified electrical
// parameters.
func (b *Builder) AddCustomTerminal(name string, x, y float64, t Terminal) int {
	t.Name = name
	b.names = append(b.names, name)
	b.pts = append(b.pts, geom.Pt(x, y))
	b.terms = append(b.terms, t)
	return len(b.pts) - 1
}

// Connect adds an explicit wire between two terminal indices; the net
// then uses the given topology instead of auto-routing. Wire length is
// the rectilinear distance.
func (b *Builder) Connect(i, j int) {
	b.edges = append(b.edges, [2]int{i, j})
}

// InsertionSpacing is the default maximum distance between candidate
// repeater locations (the paper's 800 µm rule).
const InsertionSpacing = 800.0

// AutoRoute routes the terminals with a rectilinear Steiner heuristic and
// places insertion points at the default spacing.
func (b *Builder) AutoRoute() (*Net, error) {
	return b.AutoRouteSpacing(InsertionSpacing)
}

// SynthesizeTimingDriven performs multisource timing-driven topology
// synthesis (the §VII extension): candidate topologies from the P-Tree
// interval dynamic program and the 1-Steiner heuristic are each optimized
// with repeater insertion, and the topology whose *optimized* ARD is best
// is returned together with its tradeoff suite. Explicit Connect edges
// are ignored; the router chooses the topology.
func (b *Builder) SynthesizeTimingDriven() (*Net, Suite, error) {
	if len(b.pts) < 2 {
		return nil, nil, fmt.Errorf("msrnet: need at least two terminals, got %d", len(b.pts))
	}
	res, err := ptree.TimingDriven(b.pts, b.terms, b.tech, InsertionSpacing)
	if err != nil {
		return nil, nil, err
	}
	return &Net{Tree: res.Tree, Tech: b.tech}, res.Suite, nil
}

// AutoRouteSpacing is AutoRoute with explicit insertion-point spacing;
// spacing 0 places no insertion points.
func (b *Builder) AutoRouteSpacing(spacing float64) (*Net, error) {
	if len(b.pts) < 2 {
		return nil, fmt.Errorf("msrnet: need at least two terminals, got %d", len(b.pts))
	}
	var tr *topo.Tree
	if len(b.edges) > 0 {
		tr = topo.New()
		ids := make([]int, len(b.pts))
		for i := range b.pts {
			ids[i] = tr.AddTerminal(b.pts[i], b.terms[i])
		}
		for _, e := range b.edges {
			tr.AddEdgeAuto(ids[e[0]], ids[e[1]])
		}
		tr.EnsureTerminalLeaves()
	} else {
		st := rsmt.Steiner(b.pts)
		var err error
		tr, err = fromRSMT(st, b.terms)
		if err != nil {
			return nil, err
		}
	}
	if spacing > 0 {
		tr.PlaceInsertionPoints(spacing)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("msrnet: %w", err)
	}
	return &Net{Tree: tr, Tech: b.tech}, nil
}

func fromRSMT(st rsmt.Tree, terms []Terminal) (*topo.Tree, error) {
	tr := topo.New()
	ids := make([]int, len(st.Points))
	for i, pt := range st.Points {
		if i < st.NumTerminals {
			ids[i] = tr.AddTerminal(pt, terms[i])
		} else {
			ids[i] = tr.AddSteiner(pt)
		}
	}
	for _, e := range st.Edges {
		tr.AddEdge(ids[e[0]], ids[e[1]], geom.Dist(st.Points[e[0]], st.Points[e[1]]))
	}
	tr.EnsureTerminalLeaves()
	return tr, nil
}

// Net is a routed multisource net ready for analysis and optimization.
type Net struct {
	Tree *Topology
	Tech Tech
}

// WrapTopology adopts an existing topology (e.g. loaded from a file or
// produced by internal packages) as a Net.
func WrapTopology(tr *Topology, tech Tech) *Net { return &Net{Tree: tr, Tech: tech} }

// ARDResult reports the augmented RC-diameter and its critical pair.
type ARDResult struct {
	ARD      float64
	CritSrc  string // critical source terminal name ("" if none)
	CritSink string // critical sink terminal name
}

// ARD computes the augmented RC-diameter of the net under a concrete
// assignment (use the zero Assignment for the bare net), in linear time
// (paper §III).
func (n *Net) ARD(asg Assignment) (ARDResult, error) {
	if err := n.Tree.Validate(); err != nil {
		return ARDResult{}, err
	}
	rt := n.root()
	net := rctree.NewNet(rt, n.Tech, asg)
	res := ard.Compute(net, ard.Options{})
	out := ARDResult{ARD: res.ARD}
	if res.CritSrc >= 0 {
		out.CritSrc = n.Tree.Node(res.CritSrc).Term.Name
	}
	if res.CritSink >= 0 {
		out.CritSink = n.Tree.Node(res.CritSink).Term.Name
	}
	return out, nil
}

// PathDelay returns the Elmore delay from source terminal src to sink
// terminal dst (terminal names) under the assignment, excluding AAT/Q.
func (n *Net) PathDelay(src, dst string, asg Assignment) (float64, error) {
	s, err := n.terminalByName(src)
	if err != nil {
		return 0, err
	}
	d, err := n.terminalByName(dst)
	if err != nil {
		return 0, err
	}
	net := rctree.NewNet(n.root(), n.Tech, asg)
	return net.PathDelay(s, d), nil
}

// Optimize runs the multisource repeater-insertion dynamic program with
// full control over the options, returning the Pareto suite and run
// statistics.
func (n *Net) Optimize(opt OptimizeOptions) (Suite, OptimizeStats, error) {
	res, err := core.Optimize(n.root(), n.Tech, opt)
	if err != nil {
		return nil, OptimizeStats{}, err
	}
	return res.Suite, res.Stats, nil
}

// OptimizeRepeaters runs optimal repeater insertion (paper §IV) and
// returns the cost/ARD tradeoff suite.
func (n *Net) OptimizeRepeaters() (Suite, error) {
	s, _, err := n.Optimize(OptimizeOptions{Repeaters: true})
	return s, err
}

// SizeDrivers runs discrete driver sizing (paper §V) and returns the
// tradeoff suite.
func (n *Net) SizeDrivers() (Suite, error) {
	s, _, err := n.Optimize(OptimizeOptions{SizeDrivers: true})
	return s, err
}

// SlewModel parameterizes the slew-aware generalized delay evaluation
// (see internal/slew): K is the buffer delay sensitivity to input
// transition time, InputSlew the transition time of primary inputs.
type SlewModel = slew.Model

// SlewARD evaluates the generalized, slew-aware augmented RC-diameter of
// the net under an assignment. With the zero model it equals ARD exactly;
// with positive sensitivity it accounts for edge-rate degradation along
// unbuffered runs and regeneration at repeaters. Evaluation only — the
// optimizer's exactness guarantee is specific to the Elmore measure.
func (n *Net) SlewARD(asg Assignment, m SlewModel) (ARDResult, error) {
	if err := n.Tree.Validate(); err != nil {
		return ARDResult{}, err
	}
	net := rctree.NewNet(n.root(), n.Tech, asg)
	v, cs, ck, err := slew.ARD(net, m)
	if err != nil {
		return ARDResult{}, err
	}
	out := ARDResult{ARD: v}
	if cs >= 0 {
		out.CritSrc = n.Tree.Node(cs).Term.Name
	}
	if ck >= 0 {
		out.CritSink = n.Tree.Node(ck).Term.Name
	}
	return out, nil
}

// Simulate runs the transient RC simulator from the named source and
// returns the 50%-threshold delay to each terminal by name. A validation
// aid: values should track (and slightly undercut) the Elmore delays.
func (n *Net) Simulate(src string, asg Assignment) (map[string]float64, error) {
	s, err := n.terminalByName(src)
	if err != nil {
		return nil, err
	}
	net := rctree.NewNet(n.root(), n.Tech, asg)
	delays, err := rcsim.Delays(net, s, rcsim.Options{})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, id := range n.Tree.Terminals() {
		out[n.Tree.Node(id).Term.Name] = delays[id]
	}
	return out, nil
}

// RenderSVG writes an SVG drawing of the net with the assignment's
// repeaters marked and the critical pair highlighted.
func (n *Net) RenderSVG(w io.Writer, asg Assignment, title string) error {
	res, err := n.ARD(asg)
	if err != nil {
		return err
	}
	rt := n.root()
	net := rctree.NewNet(rt, n.Tech, asg)
	r := ard.Compute(net, ard.Options{})
	return svgplot.Render(w, n.Tree, asg, svgplot.Annotation{
		Title:    title,
		Subtitle: fmt.Sprintf("ARD = %.4f ns, critical %s → %s", res.ARD, res.CritSrc, res.CritSink),
		CritSrc:  r.CritSrc,
		CritSink: r.CritSink,
	}, svgplot.Style{ShowLabels: true})
}

// Save writes the net (topology + technology) to a JSON file.
func (n *Net) Save(path, name string) error {
	return netio.Save(path, name, n.Tree, n.Tech)
}

// SaveSPEF exports the net's parasitics as an IEEE 1481 SPEF-subset
// document (see internal/spef for the exact subset and conventions).
func (n *Net) SaveSPEF(w io.Writer, name string) error {
	return spef.Write(w, name, n.Tree, n.Tech)
}

// LoadSPEF imports a tree-structured *D_NET as a Net under the given
// technology. Terminal parameters other than the load capacitance are
// taken from the template function (pass msrnet.DefaultTerminal for the
// paper's symmetric model).
func LoadSPEF(r io.Reader, tech Tech, template func(name string) Terminal) (*Net, error) {
	tr, err := spef.Read(r, tech, template)
	if err != nil {
		return nil, err
	}
	return &Net{Tree: tr, Tech: tech}, nil
}

// Load reads a net from a JSON file written by Save.
func Load(path string) (*Net, error) {
	tr, tech, err := netio.Load(path)
	if err != nil {
		return nil, err
	}
	return &Net{Tree: tr, Tech: tech}, nil
}

// WireLength returns the total wirelength in µm.
func (n *Net) WireLength() float64 { return n.Tree.TotalWireLength() }

// InsertionPoints returns the number of candidate repeater locations.
func (n *Net) InsertionPoints() int { return len(n.Tree.Insertions()) }

// Terminals returns the terminal names in id order.
func (n *Net) Terminals() []string {
	var out []string
	for _, id := range n.Tree.Terminals() {
		out = append(out, n.Tree.Node(id).Term.Name)
	}
	return out
}

func (n *Net) root() *topo.Rooted {
	return n.Tree.RootAt(n.Tree.Terminals()[0])
}

func (n *Net) terminalByName(name string) (int, error) {
	for _, id := range n.Tree.Terminals() {
		if n.Tree.Node(id).Term.Name == name {
			return id, nil
		}
	}
	return 0, fmt.Errorf("msrnet: no terminal named %q", name)
}
