// Command m2mserve runs the concurrent query service over HTTP/JSON:
// a dataset catalog, the shared build-artifact cache, and admission-
// controlled query execution (internal/service).
//
// Usage:
//
//	m2mserve [-addr 127.0.0.1:8080] [-cache-bytes N] [-parallelism N]
//	         [-max-concurrent N] [-dataset name=dir]... [-preload]
//	         [-drain-timeout 30s] [-shards N] [-backends url,url,...]
//	         [-shard-retries N] [-shard-timeout 2s]
//	         [-slow-query-millis N] [-trace-ring N] [-pprof]
//
// With -shards > 1 the server answers each query by scatter-gather
// over a hash partition of the dataset's driver relation, executing
// shards locally; with -backends it dispatches the shards to replica
// m2mserve processes instead (each must serve the same datasets —
// content fingerprints are verified), retrying classified failures on
// the next replica and tripping a per-(shard, backend) circuit breaker
// on persistent faults. Clients opt into degraded answers with
// "minCoverage" on the query; a plain m2mserve serves shard-worker
// requests without any shard flags.
//
// The edge is bounded: POST bodies are capped at 8 MiB (an oversize
// body is a 400 with the invalid-class envelope), and header reads,
// body reads and idle keep-alive connections time out on fixed
// constants (5s / 30s / 2m).
//
// On SIGTERM or SIGINT the server drains gracefully: new queries are
// shed (503 + Retry-After), in-flight queries run to completion (up to
// -drain-timeout), final stats are logged, and the process exits 0.
// main turns those signals into a context and exits with run's status:
// 0 after the drain, 1 if a dataset or the listener fails, 2 on a bad
// command line. run logs the address it bound, so -addr 127.0.0.1:0
// picks a free port and the tests drive the command in-process.
//
// API:
//
//	GET  /v1/datasets   catalog
//	POST /v1/datasets   {"name","dir"} to load a m2mdata directory, or
//	                    {"name","shape","rows","seed"} to generate
//	POST /v1/query      {"dataset","strategy","flat","parallelism",
//	                    "selections":[{"relation","column","value"}]}
//	POST /v1/mutate     {"dataset","ops":[{"op":"append","relation",
//	                    "values"},{"op":"delete","relation","row"}]} —
//	                    commits the batch as the dataset's next
//	                    snapshot; running queries keep their admitted
//	                    version, cached artifacts are repaired onto the
//	                    new version's keys before it is published
//	GET  /v1/stats      service + artifact-cache counters, query latency
//	                    quantiles, uptime, Go version and a monotonic
//	                    stats generation
//	GET  /v1/trace      recent query traces, newest first (?n= caps)
//	GET  /metrics       Prometheus text exposition of the telemetry
//	                    registry
//
// Observability: -slow-query-millis N logs every query at or over N ms
// as its /v1/trace record on one JSON line, a per-phase span breakdown
// in place of the span tree; -trace-ring N sizes the /v1/trace ring
// AND traces every query into it; clients get a span tree back by
// setting "trace":true on the query. -pprof mounts net/http/pprof
// under /debug/pprof/ on the serving mux — off by default, and meant
// for the same trusted loopback deployments as the default -addr; it
// complements m2mquery's -cpuprofile/-memprofile for profiling the
// serving path under live load.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers mounted only behind the -pprof flag
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"m2mjoin/internal/service"
)

// Connection-level read bounds, so a stalled client cannot pin a
// goroutine. There is deliberately no write timeout: a query's own
// deadline (Request.TimeoutMillis) bounds how long a response may take.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	// SIGTERM/SIGINT begin a graceful drain instead of killing the
	// process mid-query; a second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, serves until ctx is
// cancelled, drains, and returns the exit status. Everything it logs
// goes to stderr; stdout is unused.
func run(ctx context.Context, args []string, _, stderr io.Writer) int {
	logger := log.New(stderr, "", log.LstdFlags)
	fs := flag.NewFlagSet("m2mserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Loopback by default: POST /v1/datasets loads server-readable
	// m2mdata directories, which must not be reachable from the
	// network unless the operator opts in with an explicit -addr.
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cfg := service.Config{SlowQueryLog: stderr}
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", service.DefaultCacheBytes,
		"artifact cache byte budget")
	fs.IntVar(&cfg.Parallelism, "parallelism", 0,
		"total worker budget split across concurrent queries (0 = all CPUs)")
	fs.IntVar(&cfg.MaxConcurrent, "max-concurrent", 0,
		"queries executing at once; the rest queue (0 = default)")
	preload := fs.Bool("preload", false,
		"register the standard mixed-shape synthetic datasets at startup")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long a SIGTERM waits for in-flight queries before exiting")
	fs.IntVar(&cfg.Shard.Shards, "shards", 0,
		"scatter queries over this many driver-relation hash partitions (0 = unsharded, or one per backend)")
	backends := fs.String("backends", "",
		"comma-separated replica m2mserve base URLs to dispatch shards to")
	fs.IntVar(&cfg.Shard.Retries, "shard-retries", 0,
		"classified retries per shard, rotated across replicas (0 = default 1, negative disables)")
	fs.DurationVar(&cfg.Shard.AttemptTimeout, "shard-timeout", 0,
		"per-shard attempt deadline (0 = default: 2s with -backends, none for local shards; negative disables)")
	fs.Int64Var(&cfg.SlowQueryMillis, "slow-query-millis", 0,
		"log a structured slow-query line for queries at or over this end-to-end latency (0 = off)")
	fs.IntVar(&cfg.TraceRing, "trace-ring", 0,
		"size of the /v1/trace recent-trace ring; setting it traces every query (0 = default size, request-opt-in tracing)")
	pprofEnabled := fs.Bool("pprof", false,
		"mount net/http/pprof under /debug/pprof/ on the serving address")
	var regs []service.RegisterRequest
	fs.Func("dataset", "register a m2mdata directory as name=dir (repeatable)",
		func(v string) error {
			name, dir, _ := strings.Cut(v, "=")
			if dir == "" {
				return fmt.Errorf("want name=dir, got %q", v)
			}
			regs = append(regs, service.RegisterRequest{Name: name, Dir: dir})
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg.Shard.Backends = strings.FieldsFunc(*backends, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	svc := service.New(cfg)
	if cfg.SlowQueryMillis > 0 {
		logger.Printf("m2mserve: slow-query log on (threshold %dms)", cfg.SlowQueryMillis)
	}
	if n := len(cfg.Shard.Backends); cfg.Shard.Shards > 1 || n > 0 {
		logger.Printf("m2mserve: sharded tier: %d shards, %d backends %v",
			max(cfg.Shard.Shards, n), n, cfg.Shard.Backends)
	}
	if *preload {
		mix, _ := service.StandardMix(10000, 1)
		regs = append(regs, mix...)
	}
	for _, reg := range regs {
		info, err := svc.Register(reg)
		if err != nil {
			logger.Printf("m2mserve: registering %s: %v", reg.Name, err)
			return 1
		}
		logger.Printf("registered %s: %d relations, %d rows, fingerprint %#x",
			info.Name, info.Relations, info.TotalRows, info.Fingerprint)
	}

	var handler http.Handler = service.NewHandler(svc)
	if *pprofEnabled {
		// The pprof handlers registered themselves on DefaultServeMux at
		// import; mount that mux under /debug/ in front of the API so
		// everything else still routes to the service handler.
		outer := http.NewServeMux()
		outer.Handle("/debug/", http.DefaultServeMux)
		outer.Handle("/", handler)
		handler = outer
		logger.Printf("m2mserve: pprof mounted at /debug/pprof/")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("m2mserve: %v", err)
		return 1
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		ErrorLog:          logger,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Printf("m2mserve listening on %s (cache budget %d bytes)", ln.Addr(), cfg.CacheBytes)

	select {
	case err := <-errCh:
		logger.Printf("m2mserve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop admitting first so queries arriving during shutdown
	// are shed with a retry hint rather than queued behind a closing
	// listener, then wait for in-flight work, then close the listener.
	logger.Printf("m2mserve: draining (timeout %v)", *drainTimeout)
	svc.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		logger.Printf("m2mserve: drain incomplete: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("m2mserve: shutdown: %v", err)
	}

	st := svc.Stats()
	logger.Printf("m2mserve: final stats: queries=%d active=%d queued=%d mutations=%d repairs=%d errors={timeout=%d shed=%d canceled=%d invalid=%d internal=%d} cache{hits=%d misses=%d entries=%d bytes=%d evictions=%d}",
		st.Queries, st.Active, st.Queued, st.Mutations, st.Repairs,
		st.Errors.Timeout, st.Errors.Shed, st.Errors.Canceled, st.Errors.Invalid, st.Errors.Internal,
		st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, st.Cache.Bytes, st.Cache.Evictions)
	logger.Printf("m2mserve: drained, exiting")
	return 0
}
