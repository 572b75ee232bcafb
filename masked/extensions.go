package masked

import "repro/internal/apps"

// Result types of the applications beyond the paper's evaluated kernels:
// BFS, masked similarity and Markov clustering.

// BFSResult reports a direction-optimized BFS.
type BFSResult = apps.BFSResult

// MultiSourceBFSResult reports a batched BFS.
type MultiSourceBFSResult = apps.MultiSourceBFSResult

// SimilarityResult reports a masked similarity computation.
type SimilarityResult = apps.SimilarityResult

// MCLOptions configures Markov clustering.
type MCLOptions = apps.MCLOptions

// MCLResult reports a Markov clustering run.
type MCLResult = apps.MCLResult
