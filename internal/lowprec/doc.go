// Package lowprec implements the low-precision communication baselines the
// paper compares against (§IV-A baseline ❷): casting embedding lookups to
// IEEE-754 binary16 (FP16) or to the E4M3 FP8 format of Micikevicius et al.
// before the all-to-all, then casting back. Both give a fixed 2× / 4×
// reduction with relative (not error-bounded) precision loss.
//
// Layer: baseline codecs implementing internal/codec.Codec; priced by
// netmodel.PaperCodecRates under "fp16" and "fp8-e4m3" (cast kernels, so
// the rates are the highest in the table while the ratios are the lowest —
// the fixed-ratio corner of Fig. 11's trade-off space).
//
// Key types: FP16Codec, FP8Codec (E4M3; its frame keeps a format byte that
// is always 0, and any other value is rejected), and the conversion helpers
// (round-to-nearest-even casts with saturation semantics matching the
// published formats).
package lowprec
