package server

import (
	"errors"
	"fmt"
	"net/http"

	"graphdiam/internal/dataset"
	"graphdiam/internal/store"
)

// The /v2/datasets endpoints manage the persistent graph catalog (see
// internal/dataset). They exist only when the daemon was started with
// -data-dir; otherwise every dataset route answers 503 so clients can
// distinguish "not configured" from "not found".
//
//	POST   /v2/datasets?name=N[&format=F][&source=S]
//	       ingest the raw request body (edgelist | dimacs | metis |
//	       binary, each optionally gzip-wrapped; format defaults to
//	       auto-sniffing) into a content-addressed snapshot
//	GET    /v2/datasets               list cataloged datasets, catalog
//	       byte totals, and integrity-sweep telemetry
//	GET    /v2/datasets/{name}        one dataset's catalog record
//	DELETE /v2/datasets/{name}        drop the record (and the snapshot
//	       file once unreferenced); the name stops resolving at once,
//	       runs already reading the graph finish safely
//	POST   /v2/datasets/{name}/load   fault the dataset into the
//	       in-memory registry now (queries do this lazily anyway)
//	POST   /v2/datasets/{name}/append stream an edge delta ("+ u v w" /
//	       "- u v" lines, optionally gzip-wrapped) onto the dataset's
//	       lineage; the head SHA moves and the superseded head's cache
//	       slots are freed
//	POST   /v2/datasets/{name}/compact fold the delta chain into a
//	       fresh snapshot (the head — and every cache key — survives)
//
//	GET    /v2/blobs                  list snapshot content addresses
//	GET    /v2/blobs/{sha}            stream one snapshot blob
//	PUT    /v2/blobs/{sha}            store one blob (verified against
//	       the address before admission)
//	DELETE /v2/blobs/{sha}            drop one blob's local copy
//
// The blob routes expose the catalog's storage tier so peers started
// with -blob-url can share this daemon's snapshots (see
// dataset.RemoteStore). Uploads stream: the body is decoded straight
// into the CSR builder, so the daemon never holds both the full text
// and the graph in memory.

// requireDatasets answers 503 when no catalog is configured.
func (s *Server) requireDatasets(w http.ResponseWriter) (*dataset.Catalog, bool) {
	if s.cfg.Datasets == nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("dataset catalog not configured (start the daemon with -data-dir)"))
		return nil, false
	}
	return s.cfg.Datasets, true
}

// writeDatasetError maps catalog errors to HTTP statuses. The
// classification matters most on ingest: a client must be able to tell
// "my bytes are bad" (400) from "the daemon's disk or backend failed"
// (500) from "the catalog cannot hold a snapshot this large" (507) —
// before this mapping every failure, ENOSPC included, surfaced as a 400.
func writeDatasetError(w http.ResponseWriter, err error) {
	var (
		badIn  *dataset.BadInputError
		tooBig *http.MaxBytesError
	)
	switch {
	case errors.Is(err, dataset.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, dataset.ErrHeadMoved):
		writeError(w, http.StatusConflict, err)
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.As(err, &badIn):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, dataset.ErrBudgetExceeded):
		writeError(w, http.StatusInsufficientStorage, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleIngestDataset(w http.ResponseWriter, r *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?name= query parameter"))
		return
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "upload"
	}
	info, err := cat.Ingest(name, r.Body, r.URL.Query().Get("format"), source)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"datasets":   cat.List(),
		"totalBytes": cat.TotalBytes(),
		"sweep":      cat.SweepStatus(),
	})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	info, err := cat.Info(r.PathValue("name"))
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if err := cat.Remove(name); err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// blobHandler serves the catalog's blob storage tier under /v2/blobs —
// the server side of the shared-snapshot protocol dataset.RemoteStore
// speaks. Without a catalog it answers 503 like every dataset route.
func (s *Server) blobHandler() http.Handler {
	var h http.Handler
	if cat := s.cfg.Datasets; cat != nil {
		h = http.StripPrefix("/v2/blobs", dataset.BlobServer(cat.Blobs(), cat.ReferencesBlob))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h == nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("dataset catalog not configured (start the daemon with -data-dir)"))
			return
		}
		h.ServeHTTP(w, r)
	})
}

func (s *Server) handleLoadDataset(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.requireDatasets(w); !ok {
		return
	}
	info, err := s.st.LoadDataset(r.Context(), r.PathValue("name"))
	if err != nil {
		writeComputeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// AppendResponse is the POST /v2/datasets/{name}/append payload: the
// head movement plus how many cache entries it invalidated.
type AppendResponse struct {
	Dataset     string `json:"dataset"`
	PrevSHA     string `json:"prevSha"`
	HeadSHA     string `json:"headSha"`
	Applied     bool   `json:"applied"`
	Inserted    int    `json:"inserted"`
	Removed     int    `json:"removed"`
	ChainLength int    `json:"chainLength"`
	// Maintenance is present when the head actually moved.
	Maintenance *store.MaintenanceResult `json:"maintenance,omitempty"`
}

// handleAppendDataset streams an edge delta onto the named dataset's
// lineage. The body is the text delta format (gzip-sniffed like
// ingest), decoded straight into a frame; malformed records are 400,
// over-cap bodies 413, budget overflows 507 — the same classification
// as ingest. A client that appends and immediately queries can never
// see a stale result from this node: the store resolves every query's
// name to the catalog's head. ApplyDelta is told about a real head
// movement only so it can free the superseded head's cache slots before
// the response is written.
func (s *Server) handleAppendDataset(w http.ResponseWriter, r *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	d, err := dataset.DecodeDeltaStream(r.Body)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "append"
	}
	res, err := cat.AppendDelta(name, d, source)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	resp := AppendResponse{
		Dataset:     name,
		PrevSHA:     res.PrevSHA,
		HeadSHA:     res.Info.SHA256,
		Applied:     res.Applied,
		Inserted:    res.Ins,
		Removed:     res.Rem,
		ChainLength: res.Info.ChainLen(),
	}
	if res.Applied {
		m := s.st.ApplyDelta(res.PrevSHA, res.Info.SHA256)
		resp.Maintenance = &m
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompactDataset folds the named dataset's delta chain into a
// fresh snapshot. Identity is preserved by construction (the snapshot's
// content address equals the head), so no cache invalidation follows.
func (s *Server) handleCompactDataset(w http.ResponseWriter, r *http.Request) {
	cat, ok := s.requireDatasets(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	info, compacted, err := cat.Compact(name)
	if err != nil {
		writeDatasetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":     name,
		"compacted":   compacted,
		"headSha":     info.SHA256,
		"chainLength": info.ChainLen(),
	})
}
