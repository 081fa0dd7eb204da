package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"vulnstack/internal/results"
)

// digests identify a repetition's outputs: the tallies of every stored
// campaign, and (table3-cold) the rendered report.
type digests struct {
	Tallies string `json:"tallies"`
	Render  string `json:"render,omitempty"`
}

// pinned are the digests of the default seed at full size, one per
// input (repetition k runs on input seed inputSeed(2021, k)). A
// repetition whose digests differ failed. For an input without a pin
// the reference is its first repetition: the traced repetition must
// reproduce the untraced one.
var pinned = map[string][]digests{
	"table3-cold": {
		{Tallies: "bfa10fb3eabb8afd0e587c0c", Render: "46aefea800949eb9e737b604"},
		{Tallies: "26ad29333ba8626e2e47a58b", Render: "35e83560546539239f1f09b8"},
		{Tallies: "3dee09ca56e56e94767a5536", Render: "b77354f3e7c5679043f80d7d"},
		{Tallies: "65a574b0505855e2e3f788aa", Render: "211a5c6f5e7be4a58af9f93c"},
		{Tallies: "85411d2d3d033f54ebc80452", Render: "c03e933ed4713442cef8d23a"},
		{Tallies: "01bd0b9ccaf3d3f6bc77d70f", Render: "cd876ef344c265c57bf6479d"},
		{Tallies: "3537514687e41df853c8da62", Render: "e1e4942de83bdc3c7d8564c6"},
	},
	"archsoft-paper": {
		{Tallies: "19e7e24d2e7e11b1d60b5ed8"},
		{Tallies: "3e49bb6507ea60f3534c40ec"},
		{Tallies: "3f4f9b2fd11aa8b684d1d718"},
		{Tallies: "4891a328389dcd58a3d3f6f2"},
		{Tallies: "d9b8069f22e464cd594f2cd2"},
		{Tallies: "454f975bdf2efd1d10885916"},
		{Tallies: "54a608426eb0f02ef411c628"},
		{Tallies: "245d3b0aed39a236e844eb49"},
		{Tallies: "243d6a5f1db94ff3ef6a85ac"},
		{Tallies: "4dae742586e6eba79bcef3c8"},
	},
}

// defaultSeed is the seed the digests are pinned for.
const defaultSeed = 2021

func hash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// renderDigest hashes rendered reports without the lines that name the
// store directory (a fresh temporary path every repetition).
func renderDigest(texts []string) string {
	if len(texts) == 0 {
		return ""
	}
	var b strings.Builder
	for _, t := range texts {
		for _, line := range strings.Split(t, "\n") {
			if !strings.Contains(line, "results store:") {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	return hash(b.String())
}

// tallyLine renders one tally canonically.
func tallyLine(t results.Tally) string {
	return fmt.Sprintf("n=%d out=%v fpm=%v vis=%d", t.N, t.Outcomes, t.FPM, t.Visible)
}

// storeDigest hashes the tally of every stored campaign (and, for
// stratified campaigns, every stratum's tally) and counts the stored
// records.
func storeDigest(st *results.Store) (string, int, error) {
	mans, err := st.List()
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	records := 0
	for _, m := range mans {
		t, err := st.TallyPrefix(m.Key, m.N)
		if err != nil {
			return "", 0, err
		}
		records += m.N
		fmt.Fprintf(&b, "%s %s\n", m.Key, tallyLine(t))
		if strings.HasPrefix(m.Key.Mode, "strat") {
			recs, _, err := st.Load(m.Key)
			if err != nil {
				return "", 0, err
			}
			by := map[string]*results.Tally{}
			for _, rec := range recs {
				if by[rec.Stratum] == nil {
					by[rec.Stratum] = &results.Tally{}
				}
				by[rec.Stratum].Add(rec)
			}
			labels := make([]string, 0, len(by))
			for l := range by {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				fmt.Fprintf(&b, "  %s %s\n", l, tallyLine(*by[l]))
			}
		}
	}
	return hash(b.String()), records, nil
}

// checker compares every repetition's digests with the reference for
// its input and counts the operations of mismatching repetitions as
// failed.
type checker struct {
	refs   map[int]digests // by input index
	pinned bool            // refs start from the pinned default-seed digests
}

func newChecker(workload string, seed int64, pin bool) *checker {
	c := &checker{refs: map[int]digests{}}
	if pin && seed == defaultSeed {
		for k, d := range pinned[workload] {
			c.refs[k] = d
		}
		c.pinned = len(c.refs) > 0
	}
	return c
}

// check compares d with the reference for input k; without one, d
// becomes it.
func (c *checker) check(k int, d digests) error {
	ref, ok := c.refs[k]
	if !ok {
		c.refs[k] = d
		return nil
	}
	if d != ref {
		return fmt.Errorf("input %d: output digests %+v, want %+v", k, d, ref)
	}
	return nil
}
