package api

// V2 is the API version path prefix: typed errors + jobs.
const V2 = "v2"

// Latest is the newest version this contract describes.
const Latest = V2

// SupportedVersions lists the versions a current server speaks, oldest
// first.
func SupportedVersions() []string { return []string{V2} }

// VersionInfo is the GET /api/version body — the negotiation handshake.
// A client picks the newest entry of Versions it understands and prefixes
// its routes with it.
type VersionInfo struct {
	Versions []string `json:"versions"` // oldest first
	Latest   string   `json:"latest"`
}
