package core

import "context"

// bg is the context of searches a test does not cancel.
var bg = context.Background()

// baseline returns s with the ITERTD baseline selected.
func baseline(s Spec) Spec { s.Baseline = true; return s }

// as returns s retargeted at measure m (same bounds, another semantics).
func as(m string, s Spec) Spec { s.Measure = m; return s }

// workers returns s with its fan-out set to w.
func workers(s Spec, w int) Spec { s.Workers = w; return s }

// NamedSpecs lists the eleven searches Search dispatches to, keyed by the
// algorithm each runs, from one parameter set per threshold: gp (Lower),
// pp and ep (Alpha), gup (Upper), pup (Beta). The keys label the
// subtests of the package's differential suites.
func NamedSpecs(gp, pp, ep, gup, pup Spec) map[string]Spec {
	return map[string]Spec{
		"GlobalBounds":                  gp,
		"IterTDGlobal":                  baseline(gp),
		"PropBounds":                    pp,
		"IterTDProp":                    baseline(pp),
		"ExposureBounds":                ep,
		"IterTDExposure":                baseline(ep),
		"GlobalUpperBounds":             gup,
		"IterTDGlobalUpper":             baseline(gup),
		"IterTDPropUpper":               pup,
		"IterTDGlobalUpperMostGeneral":  as(MeasureUpperGeneral, gup),
		"IterTDGlobalLowerMostSpecific": as(MeasureLowerSpecific, gp),
	}
}
