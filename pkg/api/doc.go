// Package api is SICKLE-Go's versioned public wire contract: the request
// and response structs, the typed error envelope, and the job types spoken
// over HTTP by sickle-serve and consumed by pkg/client.
//
// # Versions
//
// /v2 is the one surface served. Errors use the typed envelope
// {"error":{"code":"...","message":"..."}} with machine-readable codes
// (see ErrorCode), and long-running work runs as cancellable jobs under
// /v2/jobs.
//
// GET /api/version reports the versions a server speaks; pkg/client's
// Negotiate uses it to pick the newest version both sides understand.
//
// # Errors
//
// Every v2 failure is an *Error. The Code field is stable and
// machine-readable; Message is human-oriented and may change between
// releases. Each code maps to one HTTP status via ErrorCode.HTTPStatus;
// Overloaded responses additionally carry Retry-After.
//
// # Tensor frames
//
// POST /v2/infer also speaks ContentTypeTensors, and answers in kind. A
// frame is little-endian uint32s and float64 bits: the model name's length
// and bytes; in a response only, the version; the item count; then per
// item its rank, its dims, its value count, its values, and in a response
// only, its batch size. Failures stay the JSON envelope.
//
// # Jobs
//
// Work that outlives a request/response cycle (subsampling a dataset,
// training a surrogate) is submitted as a job: POST /v2/jobs returns a Job
// in state "pending", GET /v2/jobs/{id} polls state and progress,
// GET /v2/jobs/{id}/result fetches the output of a succeeded job, and
// DELETE /v2/jobs/{id} cancels — cancellation propagates through
// context.Context into the sampling/training loops, which stop between
// cube batches or epochs.
package api
