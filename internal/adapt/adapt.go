package adapt

import (
	"fmt"
	"math"

	"dlrmcomp/internal/quant"
)

// Class is an error-bound class for a table.
type Class int

// Error-bound classes: a Large class means a larger (looser) error bound.
const (
	ClassMedium Class = iota
	ClassLarge
	ClassSmall
)

func (c Class) String() string {
	switch c {
	case ClassLarge:
		return "L"
	case ClassSmall:
		return "S"
	default:
		return "M"
	}
}

// PatternStats describes one sampled batch of a table (the columns of the
// paper's Tables III/IV).
type PatternStats struct {
	TableID     int
	Batch       int     // rows sampled
	OrigUnique  int     // distinct embedding vectors before quantization
	QuantUnique int     // distinct vectors after quantization
	HomoIndex   float64 // Eq. (1): (OrigUnique − QuantUnique) / OrigUnique
	// PatternRatio is QuantUnique/OrigUnique — the value the paper's
	// Tables III/IV actually tabulate in their "Homo Index" column.
	PatternRatio float64
}

// hashRow gives a collision-resistant fingerprint for uniqueness counting.
func hashRowF(row []float32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range row {
		u := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= 1099511628211
		}
	}
	return h
}

func hashRowI(row []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range row {
		u := uint32(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(u >> s))
			h *= 1099511628211
		}
	}
	return h
}

// AnalyzeTable computes the homogenization statistics for a sampled lookup
// batch (row-major, row length dim) under error bound eb.
func AnalyzeTable(tableID int, sample []float32, dim int, eb float32) (PatternStats, error) {
	if dim <= 0 || len(sample)%dim != 0 || len(sample) == 0 {
		return PatternStats{}, fmt.Errorf("adapt: bad sample shape len=%d dim=%d", len(sample), dim)
	}
	rows := len(sample) / dim
	codes := make([]int32, len(sample))
	quant.New(eb).Quantize(codes, sample)

	orig := make(map[uint64]bool)
	quantSet := make(map[uint64]bool)
	for r := 0; r < rows; r++ {
		orig[hashRowF(sample[r*dim:(r+1)*dim])] = true
		quantSet[hashRowI(codes[r*dim:(r+1)*dim])] = true
	}
	st := PatternStats{
		TableID:     tableID,
		Batch:       rows,
		OrigUnique:  len(orig),
		QuantUnique: len(quantSet),
	}
	st.HomoIndex = float64(st.OrigUnique-st.QuantUnique) / float64(st.OrigUnique)
	st.PatternRatio = float64(st.QuantUnique) / float64(st.OrigUnique)
	return st, nil
}

// Thresholds are the classification cut points on the Homogenization Index
// (Algorithm 1's L_EMB_hindex and S_EMB_hindex).
type Thresholds struct {
	// LHindex: tables with HomoIndex below it get the Large error bound.
	LHindex float64
	// SHindex: tables with HomoIndex above it get the Small error bound.
	SHindex float64
}

// DefaultThresholds returns cut points that reproduce the paper's Table II
// pattern on both datasets: tiny tables barely homogenize (Large EB), huge
// tables collapse heavily (Small EB).
func DefaultThresholds() Thresholds { return Thresholds{LHindex: 0.05, SHindex: 0.35} }

// Validate checks ordering.
func (t Thresholds) Validate() error {
	if !(t.LHindex < t.SHindex) {
		return fmt.Errorf("adapt: thresholds must satisfy LHindex < SHindex, got %v >= %v", t.LHindex, t.SHindex)
	}
	return nil
}

// Classify implements Algorithm 1's EMBClassification.
func Classify(homoIndex float64, th Thresholds) Class {
	switch {
	case homoIndex > th.SHindex:
		return ClassSmall
	case homoIndex < th.LHindex:
		return ClassLarge
	default:
		return ClassMedium
	}
}

// EBConfig maps classes to error bounds. The paper's final configuration is
// Large 0.05, Medium 0.03, Small 0.01 (§IV-B).
type EBConfig struct {
	Large, Medium, Small float32
}

// PaperEBConfig returns the configuration the paper selects.
func PaperEBConfig() EBConfig { return EBConfig{Large: 0.05, Medium: 0.03, Small: 0.01} }

// For returns the bound for a class.
func (c EBConfig) For(class Class) float32 {
	switch class {
	case ClassLarge:
		return c.Large
	case ClassSmall:
		return c.Small
	default:
		return c.Medium
	}
}

// Validate checks ordering and positivity.
func (c EBConfig) Validate() error {
	if c.Small <= 0 || c.Medium < c.Small || c.Large < c.Medium {
		return fmt.Errorf("adapt: EBConfig must satisfy 0 < Small <= Medium <= Large, got %+v", c)
	}
	return nil
}
