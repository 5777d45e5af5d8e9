// Package tape implements the sparse temporal tape: the BPTT
// activation-cache subsystem and the time-major execution engine of the
// training stack.
//
// # Why a tape
//
// BPTT over T timesteps forces every layer to retain what its backward pass
// needs for each timestep. Before this package, those caches were dense
// tensors — even though almost all of them are binary spike rasters that are
// mostly zero at realistic firing rates. A Stack records each per-timestep
// activation as a Rec that is either event-encoded (a sparse.Events pattern,
// ~occupancy× the dense footprint) or dense (analog inputs, e.g. the first
// convolution under direct encoding or post-BatchNorm currents). The backward
// pass replays the tape: when every timestep of a layer's tape is
// event-encoded and active-position-only gradients are armed, the recorded
// patterns are consumed directly by the event-aware gradient kernels in
// internal/sparse, so backward-weight work scales with weightDensity ×
// spikeRate like the forward pass does; otherwise each record is decoded one
// timestep at a time.
//
// Every push and pop updates a package-level memory meter
// (CacheBytes/PeakBytes), so peak BPTT activation-cache memory is a measured
// quantity rather than a model — perfbench records it as tape.peak_mib.
//
// # Time-major execution
//
// Run drives a layer pipeline across all T timesteps one layer at a time
// (time-major) instead of all layers one timestep at a time (step-major).
// The two orders are equivalent for temporally-unrolled feedforward networks
// — inter-layer data flow is per-timestep and recurrence lives inside a
// layer — but time-major hands each layer its whole input sequence at once,
// which lets Conv2d take the event-driven path for a sample only when all
// T timesteps are sparse enough, and replay them together: one
// backward-data traversal of the weight matrix for all T, and one gradient
// walk per timestep over the recorded spike lists. Layers opt into this by
// implementing SequenceLayer (Conv2d's per-timestep Forward is just
// ForwardSeq at T=1, and Linear runs as Conv2d's 1×1 case); everything else
// is driven per timestep in order, which is exactly what the step-major
// schedule would have done to it.
//
// The package sits just above internal/sparse and internal/tensor; the layer
// library stores its caches in tape Stacks, and internal/snn's Network drives
// whole networks through Run/RunBackward. (The step-major loop that
// predated this engine is deleted; its behavior is pinned as golden
// fixtures in internal/snn's equivalence tests.)
package tape
