package adapt

import (
	"fmt"
	"math"
)

// Schedule selects the iteration-wise decay function (Fig. 5 compares
// these; the paper picks Stepwise as default).
type Schedule int

// Decay schedules. All decay a multiplier from StartFactor down to 1 across
// the initial phase, then hold at 1 (the "later phase" of §III-C).
const (
	// ScheduleNone keeps the base error bound for the whole run.
	ScheduleNone Schedule = iota
	// ScheduleStepwise is the staircase descent the paper selects.
	ScheduleStepwise
	// ScheduleLogarithmic decays fast early, slowly later.
	ScheduleLogarithmic
	// ScheduleLinear decays at a constant rate.
	ScheduleLinear
	// ScheduleExponential decays geometrically.
	ScheduleExponential
	// ScheduleDrop holds StartFactor for the whole initial phase and then
	// drops abruptly to 1 — the paper's "Drop_2x/3x" comparator (Fig. 10).
	ScheduleDrop
)

func (s Schedule) String() string {
	switch s {
	case ScheduleStepwise:
		return "stepwise"
	case ScheduleLogarithmic:
		return "logarithmic"
	case ScheduleLinear:
		return "linear"
	case ScheduleExponential:
		return "exponential"
	case ScheduleDrop:
		return "drop"
	default:
		return "none"
	}
}

// ParseSchedule maps a configuration string onto a Schedule (the inverse
// of Schedule.String). The empty string selects ScheduleNone.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "", "none":
		return ScheduleNone, nil
	case "stepwise":
		return ScheduleStepwise, nil
	case "logarithmic", "log":
		return ScheduleLogarithmic, nil
	case "linear":
		return ScheduleLinear, nil
	case "exponential", "exp":
		return ScheduleExponential, nil
	case "drop":
		return ScheduleDrop, nil
	}
	return ScheduleNone, fmt.Errorf("adapt: unknown decay schedule %q (want none, stepwise, logarithmic, linear, exponential, or drop)", s)
}

// StepwiseSteps is the number of staircase levels of ScheduleStepwise.
const StepwiseSteps = 4

// DecayFactor returns the error-bound multiplier (>= 1) at iteration iter
// for a decay phase of phaseLen iterations starting at startFactor.
// Outside the phase (iter >= phaseLen) the factor is exactly 1.
func DecayFactor(s Schedule, iter, phaseLen int, startFactor float64) float64 {
	if s == ScheduleNone || startFactor <= 1 || phaseLen <= 0 || iter >= phaseLen {
		return 1
	}
	if iter < 0 {
		iter = 0
	}
	t := float64(iter) / float64(phaseLen) // progress in [0, 1)
	switch s {
	case ScheduleStepwise:
		// K equal steps: startFactor at t=0, stepping down to the last
		// step just above 1; reaches 1 when the phase ends.
		step := math.Floor(t * StepwiseSteps)
		return startFactor - float64((startFactor-1)*step/StepwiseSteps)
	case ScheduleLogarithmic:
		// Fast early decay: log(1+9t) sweeps 0 → log(10) as t goes 0 → 1.
		return 1 + float64((startFactor-1)*(1-math.Log1p(9*t)/math.Log(10)))
	case ScheduleLinear:
		return startFactor - float64((startFactor-1)*t)
	case ScheduleExponential:
		return math.Pow(startFactor, 1-t)
	case ScheduleDrop:
		return startFactor
	}
	return 1
}

// Controller drives per-table, per-iteration error bounds: the table-wise
// base bound from classification, scaled by the iteration-wise decay factor.
type Controller struct {
	// BaseEB is the per-table base error bound (the class bound).
	BaseEB []float32
	// Schedule is the decay function of the initial phase.
	Schedule Schedule
	// PhaseLen is the length of the initial (decay) phase in iterations.
	PhaseLen int
	// StartFactor is the initial multiplier (the paper evaluates 2× and 3×).
	StartFactor float64
}

// NewController builds a controller from a classification result.
func NewController(classes []Class, cfg EBConfig, sched Schedule, phaseLen int, startFactor float64) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if startFactor < 1 {
		return nil, fmt.Errorf("adapt: start factor %v must be >= 1", startFactor)
	}
	base := make([]float32, len(classes))
	for i, cl := range classes {
		base[i] = cfg.For(cl)
	}
	return &Controller{BaseEB: base, Schedule: sched, PhaseLen: phaseLen, StartFactor: startFactor}, nil
}

// EBAt returns the error bound for table at iteration iter (Algorithm 1's
// OnlineDecay applied to the table-wise configuration).
func (c *Controller) EBAt(table, iter int) float32 {
	f := DecayFactor(c.Schedule, iter, c.PhaseLen, c.StartFactor)
	return c.BaseEB[table] * float32(f)
}

// NumTables returns the number of tables the controller covers.
func (c *Controller) NumTables() int { return len(c.BaseEB) }
