package api

// InferItem is one example: a flat row-major payload plus its shape
// (without the batch dimension).
type InferItem struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// InferRequest is the JSON body of POST /v2/infer.
type InferRequest struct {
	Model string      `json:"model"`
	Items []InferItem `json:"items"`
}

// InferResponse returns one output per input item, in order. BatchSizes
// records the micro-batch each item rode in — load generators use it to
// show batching engaged.
type InferResponse struct {
	Model      string      `json:"model"`
	Version    int         `json:"version"`
	Outputs    []InferItem `json:"outputs"`
	BatchSizes []int       `json:"batchSizes"`
}

// SubsampleRequest is the body of POST /v2/subsample,
// and the payload of a subsample job: either a named registry dataset
// (synthesized on first use, then cached) or a .skl shard path, plus the
// two-phase pipeline parameters.
type SubsampleRequest struct {
	Dataset string `json:"dataset,omitempty"` // a registry dataset name
	Scale   string `json:"scale,omitempty"`   // "small" (default) | "large"
	Shard   string `json:"shard,omitempty"`   // path to a .skl file instead of a dataset

	Snapshot      int    `json:"snapshot"`
	Hypercubes    string `json:"hypercubes,omitempty"`
	Method        string `json:"method,omitempty"`
	NumHypercubes int    `json:"numHypercubes,omitempty"`
	NumSamples    int    `json:"numSamples,omitempty"`
	Cube          int    `json:"cube,omitempty"` // cube edge (clamped to the grid)
	NumClusters   int    `json:"numClusters,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

// SubsampleResponse summarizes a pipeline run (or shard read).
type SubsampleResponse struct {
	Dataset   string  `json:"dataset"`
	Snapshot  int     `json:"snapshot"`
	Cubes     int     `json:"cubes"`
	Points    int     `json:"points"`
	CacheHit  bool    `json:"cacheHit"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// ModelSpec names a servable architecture together with the dimensions
// needed to rebuild an identical replica — the contract a checkpoint
// imposes on its reader. It mirrors train.ArchSpec field for field, JSON
// names too, so the SDK imports nothing of the program; serve converts.
type ModelSpec struct {
	Arch   string `json:"arch"`             // lstm | mlp_transformer | cnn_transformer | matey
	InDim  int    `json:"inDim"`            // lstm: input width; others: input variables
	Hidden int    `json:"hidden,omitempty"` // lstm hidden size / transformer model dim (default 16)
	Heads  int    `json:"heads,omitempty"`  // attention heads (default 2)
	OutDim int    `json:"outDim"`           // lstm: output width; others: output variables
	Edge   int    `json:"edge,omitempty"`   // decoder cube edge (transformer/MATEY only)
}

// ModelInfo describes one registered model version, as listed by
// GET /v2/models.
type ModelInfo struct {
	Name       string    `json:"name"`
	Version    int       `json:"version"`
	Spec       ModelSpec `json:"spec"`
	Checkpoint string    `json:"checkpoint,omitempty"`
	InputShape []int     `json:"inputShape,omitempty"` // per-example shape, no batch dim
	Replicas   int       `json:"replicas"`
}

// RegisterModelRequest is the body of POST /v2/models: load
// (or hot-swap) a checkpoint under a name.
type RegisterModelRequest struct {
	Name       string    `json:"name"`
	Spec       ModelSpec `json:"spec"`
	Checkpoint string    `json:"checkpoint"`
	InputShape []int     `json:"inputShape,omitempty"`
	Replicas   int       `json:"replicas,omitempty"`
}

// Health is the GET /healthz body. A single-node server fills the first
// five fields; a shard router additionally reports the state of every
// backend it fronts in Replicas (aggregating Models/QueueDepth/Jobs across
// the live ones).
type Health struct {
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptimeSeconds"`
	Models        []string        `json:"models"`
	QueueDepth    int             `json:"queueDepth"`
	Jobs          map[string]int  `json:"jobs,omitempty"`        // job counts by state
	Replication   int             `json:"replication,omitempty"` // shard router only: owner-set size K
	Replicas      []ReplicaHealth `json:"replicas,omitempty"`    // shard router only
}

// ReplicaHealth is one backend's state as seen by a shard router's health
// prober.
type ReplicaHealth struct {
	ID                  string `json:"id"`
	URL                 string `json:"url"`
	Up                  bool   `json:"up"`
	Draining            bool   `json:"draining,omitempty"` // bleeding sticky jobs before leaving
	Status              string `json:"status,omitempty"`   // replica's own Health.Status (e.g. "ok", "degraded")
	ConsecutiveFailures int    `json:"consecutiveFailures,omitempty"`
	Error               string `json:"error,omitempty"` // last probe/call failure while down
}

// ---- shard membership admin API (router only) ----

// AdminReplica is one entry in the router's membership view
// (GET /admin/replicas).
type AdminReplica struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining,omitempty"`
}

// AdminReplicas is the GET /admin/replicas body: the ring's current
// membership plus the configured replication factor.
type AdminReplicas struct {
	Replication int            `json:"replication"`
	Replicas    []AdminReplica `json:"replicas"`
}

// JoinReplicaRequest is the POST /admin/replicas body: add a running
// sickle-serve backend to the ring. The router health-checks the URL and
// warm-prefetches the fleet's model catalog onto it before it takes any
// keyed traffic.
type JoinReplicaRequest struct {
	URL string `json:"url"`
}

// JoinReplicaResponse reports the assigned replica identity and which
// models the warm-cache prefetch managed to register on the newcomer
// before it was admitted to the ring.
type JoinReplicaResponse struct {
	Replica          AdminReplica `json:"replica"`
	PrefetchedModels []string     `json:"prefetchedModels"`
}

// DrainReplicaResponse is the DELETE /admin/replicas/{id} body: the
// removed replica and how many sticky jobs the rolling drain waited out
// before taking it off the ring.
type DrainReplicaResponse struct {
	Replica     AdminReplica `json:"replica"`
	DrainedJobs int          `json:"drainedJobs"`
}
