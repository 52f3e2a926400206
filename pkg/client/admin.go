package client

import (
	"context"
	"net/http"

	"repro/pkg/api"
)

// The /admin/replicas surface exists only on a sickle-shard router; a
// plain sickle-serve backend answers these paths with a typed not_found.
// The endpoints are unversioned — membership is an operator surface, not
// part of the /v2 wire contract clients negotiate.

// AdminReplicas fetches the router's current ring membership and
// replication factor (GET /admin/replicas).
func (c *Client) AdminReplicas(ctx context.Context) (*api.AdminReplicas, error) {
	return call[api.AdminReplicas](ctx, c, http.MethodGet, "/admin/replicas", nil)
}

// AdminJoinReplica adds a running sickle-serve backend to the router's
// ring (POST /admin/replicas). The router health-checks the URL and
// warm-prefetches the fleet's model catalog onto it before admitting it;
// the response lists which models made it over.
func (c *Client) AdminJoinReplica(ctx context.Context, url string) (*api.JoinReplicaResponse, error) {
	return call[api.JoinReplicaResponse](ctx, c, http.MethodPost, "/admin/replicas", &api.JoinReplicaRequest{URL: url})
}

// AdminDrainReplica drains and removes one replica from the router's
// ring (DELETE /admin/replicas/{id}): the replica stops receiving new
// keyed traffic immediately, the call blocks until its sticky jobs reach
// terminal states (bounded by ctx), and the replica then leaves the
// membership. force skips the bleed and removes immediately. The backend
// process itself is left running — it is not the router's to stop.
func (c *Client) AdminDrainReplica(ctx context.Context, id string, force bool) (*api.DrainReplicaResponse, error) {
	p := "/admin/replicas/" + id
	if force {
		p += "?force=true"
	}
	return call[api.DrainReplicaResponse](ctx, c, http.MethodDelete, p, nil)
}
