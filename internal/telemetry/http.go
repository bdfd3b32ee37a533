package telemetry

import "net/http"

// Canonical Content-Type values for the project's HTTP expositions. Every
// handler sets one of these explicitly — the charset on JSON and the
// exposition version on Prometheus text are part of the contract scrape
// pipelines key on, not a nicety — and the handler tests assert them.
const (
	// ContentTypeJSON is served by /telemetry, /healthz and every
	// /debug/* JSON endpoint.
	ContentTypeJSON = "application/json; charset=utf-8"
	// ContentTypeProm is served by /metrics.prom (text exposition 0.0.4).
	ContentTypeProm = "text/plain; version=0.0.4"
	// ContentTypeNDJSON is served by streaming JSONL dumps such as
	// /debug/decisions.
	ContentTypeNDJSON = "application/x-ndjson"
)

// Mount registers the registry's two read-out routes on mux — the whole
// metrics surface of every tier, so a daemon and a fleet router are
// scraped the same way:
//
//	GET /metrics.prom  Prometheus text exposition 0.0.4 (WriteProm)
//	GET /telemetry     the JSON snapshot ReadSnapshot parses (WriteJSON;
//	                   cmd/dvfsstat -metrics input)
func (r *Registry) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentTypeProm)
		r.WriteProm(w) // a failed write is the scraper hanging up
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentTypeJSON)
		r.WriteJSON(w)
	})
}
