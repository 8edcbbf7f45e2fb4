package regexast

// Stats summarizes the structural features of a pattern — the
// workload-characterization view (ANMLZoo-style) that explains why the
// Fig 9 decision graph routes a regex where it does.
type Stats struct {
	// Literals counts single-byte character classes.
	Literals int
	// Classes counts multi-byte (but not full-Σ) character classes.
	Classes int
	// Dots counts full-alphabet classes.
	Dots int
	// Alternations counts Alt nodes.
	Alternations int
	// BoundedRepetitions counts Repeat nodes with finite Max > 1 or
	// Min > 1.
	BoundedRepetitions int
	// UnboundedRepetitions counts * / + / {m,} nodes.
	UnboundedRepetitions int
	// Optionals counts r? nodes.
	Optionals int
	// MaxBound is the largest finite repetition bound.
	MaxBound int
	// StarHeight is the maximum nesting depth of unbounded repetitions.
	StarHeight int
	// States is the Glushkov position count as written.
	States int
	// UnfoldedStates is the position count after unfolding bounded
	// repetitions.
	UnfoldedStates int
}

// Analyze computes the statistics of a node.
func Analyze(n Node) Stats {
	s := Stats{States: n.States(), UnfoldedStates: UnfoldedStates(n), MaxBound: MaxRepeatBound(n)}
	s.StarHeight = starHeight(n)
	Walk(n, func(m Node) {
		switch t := m.(type) {
		case *Lit:
			switch {
			case t.Class.IsAny():
				s.Dots++
			case t.Class.Count() == 1:
				s.Literals++
			default:
				s.Classes++
			}
		case *Alt:
			s.Alternations++
		case *Repeat:
			switch {
			case t.Max == Unbounded:
				s.UnboundedRepetitions++
			case t.Min == 0 && t.Max == 1:
				s.Optionals++
			case t.Max > 1 || t.Min > 1:
				s.BoundedRepetitions++
			}
		}
	})
	return s
}

func starHeight(n Node) int {
	switch t := n.(type) {
	case Empty, *Lit:
		return 0
	case *Concat:
		h := 0
		for _, s := range t.Subs {
			if sh := starHeight(s); sh > h {
				h = sh
			}
		}
		return h
	case *Alt:
		h := 0
		for _, s := range t.Subs {
			if sh := starHeight(s); sh > h {
				h = sh
			}
		}
		return h
	case *Repeat:
		h := starHeight(t.Sub)
		if t.Max == Unbounded {
			h++
		}
		return h
	default:
		return 0
	}
}

// AverageClassSize returns the mean member count over the pattern's
// character classes (0 when there are none).
func AverageClassSize(n Node) float64 {
	total, count := 0, 0
	Walk(n, func(m Node) {
		if l, ok := m.(*Lit); ok {
			total += l.Class.Count()
			count++
		}
	})
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
