package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netio"
	"msrnet/internal/rctree"
	"msrnet/internal/service"
)

// verdict is the checked view of a run's requests.
type verdict struct {
	attempted, failed int
	refused           int // 429 or 5xx
	wrong             int // answered, but not with a correct result
	jobs              int // jobs in the attempted requests
	okNets            int // results answered ok and verified correct
	// dp sums the DP stats of the msri results solved for the request
	// (not cache hits), the source of the core.* counts.
	dp dpTotals
	// firstMsg describes the first failure, for the stderr report.
	firstMsg string
}

// dpTotals sums core.Stats over fresh solves.
type dpTotals struct {
	solves, created, prunes, dropped, maxSet int
}

func (t *dpTotals) add(s core.Stats) {
	t.solves++
	t.created += s.SolutionsCreated
	t.prunes += s.PruneCalls
	t.dropped += s.Dropped
	t.maxSet = max(t.maxSet, s.MaxSetSize)
}

// merge adds another client's verdict to v.
func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.refused += o.refused
	v.wrong += o.wrong
	v.jobs += o.jobs
	v.okNets += o.okNets
	v.dp.solves += o.dp.solves
	v.dp.created += o.dp.created
	v.dp.prunes += o.dp.prunes
	v.dp.dropped += o.dp.dropped
	v.dp.maxSet = max(v.dp.maxSet, o.dp.maxSet)
	if v.firstMsg == "" {
		v.firstMsg = o.firstMsg
	}
}

// answerTol is the relative tolerance between an answer and its
// independent re-evaluation: both run the same float arithmetic, so
// only the JSON round trip could perturb the last digit.
const answerTol = 1e-9

// check adds one attempted request to v. A failed, refused or wrong
// request counts in failed; it never aborts the run.
func (v *verdict) check(p *plan, o *outcome) {
	v.attempted++
	v.jobs += len(o.req.nets)
	nets, err := checkOutcome(p, o, &v.dp)
	if err != nil {
		v.failed++
		switch {
		case o.status == http.StatusTooManyRequests || o.status >= 500:
			v.refused++
		case o.err == nil:
			v.wrong++
		}
		if v.firstMsg == "" {
			v.firstMsg = fmt.Sprintf("request %s: %v", o.traceID, err)
		}
	}
	v.okNets += nets
}

// checkOutcome returns how many of the request's results are ok and
// correct and an error describing the first thing wrong with the
// request, if any. It adds the stats of the freshly solved msri results
// to dp.
func checkOutcome(p *plan, o *outcome, dp *dpTotals) (int, error) {
	if o.err != nil {
		return 0, o.err
	}
	if o.status != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %.200s", o.status, o.body)
	}
	var resp service.Response
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Results) != len(o.req.nets) {
		return 0, fmt.Errorf("%d results for %d jobs", len(resp.Results), len(o.req.nets))
	}
	var ok int
	var first error
	for j, res := range resp.Results {
		in := &p.inputs[o.req.nets[j]]
		var err error
		if res.Status != service.StatusOK {
			err = fmt.Errorf("status %s (%s): %s", res.Status, res.Code, res.Error)
		} else if err = checkMSRI(in, res); err == nil && o.req.mode == "both" {
			err = checkARD(in, res)
		}
		if err != nil {
			if first == nil {
				first = fmt.Errorf("job %d: %w", j, err)
			}
			continue
		}
		ok++
		if res.Opt != nil && !res.Cached {
			dp.add(res.Opt.Stats)
		}
	}
	return ok, first
}

// checkARD compares the ard half of a "both" result against the
// direct ard.Compute made in setup.
func checkARD(in *input, res service.Result) error {
	if res.ARD == nil {
		return fmt.Errorf("ard result missing")
	}
	if !near(res.ARD.ARD, in.ard) {
		return fmt.Errorf("ard %v, direct ard.Compute gives %v", res.ARD.ARD, in.ard)
	}
	return nil
}

// checkMSRI checks an msri result without trusting the solver: the
// suite must be a strict Pareto frontier, the chosen point its min-ARD
// end, and the returned assignment — rebuilt from its JSON and the
// technology's repeater names — must evaluate, under an independent
// ard.Compute, to the chosen ARD at the chosen cost.
func checkMSRI(in *input, res service.Result) error {
	opt := res.Opt
	if opt == nil || len(opt.Suite) == 0 {
		return fmt.Errorf("msri result missing or empty suite")
	}
	for k := 1; k < len(opt.Suite); k++ {
		a, b := opt.Suite[k-1], opt.Suite[k]
		if !(b.Cost > a.Cost && b.ARD < a.ARD) {
			return fmt.Errorf("suite not strictly Pareto at %d: %+v then %+v", k, a, b)
		}
	}
	if last := opt.Suite[len(opt.Suite)-1]; opt.Chosen != last {
		return fmt.Errorf("chosen %+v is not the min-ARD point %+v", opt.Chosen, last)
	}
	tr, tech, err := netio.Decode(in.file)
	if err != nil {
		return fmt.Errorf("decode input: %w", err)
	}
	asg, err := rebuildAssignment(opt.Assign, tech)
	if err != nil {
		return err
	}
	if len(asg.Repeaters) != opt.Chosen.Repeaters {
		return fmt.Errorf("assignment has %d repeaters, chosen point %d", len(asg.Repeaters), opt.Chosen.Repeaters)
	}
	if !near(asg.Cost(), opt.Chosen.Cost) {
		return fmt.Errorf("assignment costs %v, chosen point %v", asg.Cost(), opt.Chosen.Cost)
	}
	if got := directARD(tr, tech, asg); !near(got, opt.Chosen.ARD) {
		return fmt.Errorf("assignment evaluates to ARD %v, chosen point claims %v", got, opt.Chosen.ARD)
	}
	return nil
}

// rebuildAssignment turns an AssignmentJSON back into the concrete
// assignment, resolving repeater names (and their flipped variants)
// against the technology.
func rebuildAssignment(a netio.AssignmentJSON, tech buslib.Tech) (rctree.Assignment, error) {
	byName := map[string]buslib.Repeater{}
	for _, r := range tech.Repeaters {
		byName[r.Name] = r
		byName[r.Flip().Name] = r.Flip()
	}
	asg := rctree.Assignment{Repeaters: map[int]rctree.Placed{}}
	for _, p := range a.Repeaters {
		r, ok := byName[p.Name]
		if !ok {
			return asg, fmt.Errorf("unknown repeater %q at node %d", p.Name, p.Node)
		}
		asg.Repeaters[p.Node] = rctree.Placed{Rep: r, ASideUp: p.ASideUp}
	}
	if len(a.Drivers) > 0 || len(a.Widths) > 0 {
		return asg, fmt.Errorf("repeaters-only job returned %d driver and %d width choices", len(a.Drivers), len(a.Widths))
	}
	return asg, nil
}

// near reports whether a and b agree within answerTol, relative to
// their magnitude.
func near(a, b float64) bool {
	return math.Abs(a-b) <= answerTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
