package main

// Every symbol of graphdiam/internal/... the benchmark uses is named in
// this file and nowhere else, so a refactor of the program sees in one
// place the surface it must keep (or the lines here it must update). The
// other files of the benchmark call these aliases only.

import (
	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/core"
	"graphdiam/internal/dataset"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
	"graphdiam/internal/quotient"
	"graphdiam/internal/rng"
	"graphdiam/internal/server"
	"graphdiam/internal/sssp"
	"graphdiam/internal/store"
	"graphdiam/internal/validate"
)

type (
	// graph
	Graph  = graph.Graph
	NodeID = graph.NodeID

	// bsp: the engine, its cost snapshot and the tracer seam.
	Engine   = bsp.Engine
	Snapshot = bsp.Snapshot
	Tracer   = bsp.Tracer

	// core: CLUSTER and CL-DIAM.
	ClusterOptions = core.Options
	DiamOptions    = core.DiamOptions
	DiamResult     = core.DiamResult
	Clustering     = core.Clustering
	Progress       = core.Progress

	// quotient
	QuotientOptions = quotient.DiameterOptions

	// sssp
	DeltaResult = sssp.DeltaResult

	// store: the service layer under the HTTP API.
	Store          = store.Store
	StoreConfig    = store.Config
	StoreParams    = store.Params
	DiameterResult = store.DiameterResult
	StoreStats     = store.Stats

	// server: the HTTP layer and its wire types.
	ServerConfig     = server.Config
	DiameterResponse = server.DiameterResponse
	AppendResponse   = server.AppendResponse
	FleetInfo        = server.FleetInfoResponse

	// dataset: the persistent catalog and its delta lineage.
	Catalog        = dataset.Catalog
	CatalogOptions = dataset.Options
	DatasetInfo    = dataset.Info
)

var (
	// gen, rng, cc: input generation.
	genFromSpec     = gen.FromSpec
	genRMatDefault  = gen.RMatDefault
	genUniform      = gen.UniformWeights
	rngNew          = rng.New
	ccLargest       = cc.LargestComponent
	gioReadDIMACS   = gio.ReadDIMACS
	gioWriteDIMACS  = gio.WriteDIMACS
	validateLowerBd = validate.LowerBound

	// bsp
	bspNew = bsp.New

	// core, quotient: the CL-DIAM pipeline and its stages.
	coreApproxDiameter = core.ApproxDiameter
	coreCluster        = core.Cluster
	coreTauForTarget   = core.TauForQuotientTarget
	quotientBuild      = quotient.Build
	quotientDiameter   = quotient.Diameter

	// sssp (and, through Dijkstra, pq.FlatHeap).
	ssspDiameterUpperBound = sssp.DiameterUpperBound
	ssspTuneDelta          = sssp.TuneDelta
	ssspDijkstra           = sssp.Dijkstra

	// store, server, dataset: in-process replays of the serving path.
	storeNew           = store.New
	serverNew          = server.New
	datasetOpen        = dataset.Open
	datasetApplyDelta  = dataset.ApplyEdgeDelta
	datasetDecodeDelta = dataset.DecodeDeltaStream
)
