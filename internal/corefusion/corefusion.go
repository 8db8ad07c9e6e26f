// Package corefusion implements the Core Fusion baseline (Ipek et al.,
// ISCA 2007) that the Fg-STP paper compares against: two cores fused
// into one double-width out-of-order processor.
//
// Fusion doubles the front-end width, ROB, load/store queues and
// functional units, but the merged machine is not a monolithic big
// core: instructions execute in two clusters (the original cores'
// back ends) with a cross-cluster bypass penalty, and the merged front
// end pays extra pipeline stages for the fetch-management and
// steering-management units — which also deepen the branch-misprediction
// redirect path. Those published overhead terms are the architectural
// difference Fg-STP exploits; they are configuration inputs here
// (config.FusionOverheads), not tuned constants.
package corefusion

import (
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ooo"
)

// FusedConfig derives the fused-core pipeline configuration from a
// per-core sizing and the fusion overhead terms.
func FusedConfig(m config.Machine) ooo.Config {
	c := m.Core
	c.Name = m.Core.Name + "-fused"
	// The merged front end and commit stage span both cores.
	c.FetchWidth *= 2
	c.FrontWidth *= 2
	c.CommitWidth *= 2
	// Windows merge; the issue queues and functional units stay
	// per-cluster (IssueWidth, IQSize and FU counts in ooo.Config are
	// per cluster).
	c.ROBSize *= 2
	c.LQSize *= 2
	c.SQSize *= 2
	c.Clusters = 2
	c.CrossClusterBypass = m.Fusion.CrossClusterBypass
	c.FrontendDepth += m.Fusion.ExtraFrontend
	c.ExtraMispredictPenalty = m.Fusion.ExtraMispredict
	return c
}

// FusedHierarchy derives the fused memory system: the L1s of both cores
// operate as one double-capacity data path for the merged core. We
// model this as doubling the L1 sizes (banked across the original
// arrays) over the shared L2, per the Core Fusion design.
func FusedHierarchy(m config.Machine) mem.HierarchyConfig {
	h := m.Hier
	h.L1I.SizeBytes *= 2
	h.L1I.Assoc *= 2
	h.L1D.SizeBytes *= 2
	h.L1D.Assoc *= 2
	h.L1I.LatencyCycles += m.Fusion.L1CrossbarLatency
	h.L1D.LatencyCycles += m.Fusion.L1CrossbarLatency
	return h
}
