package wire

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServeListener serves h on ln until ctx is cancelled, then shuts down
// gracefully: in-flight requests get up to 5 seconds to finish. name
// prefixes the "serving on" and "shut down" records logged at Info; attrs
// ride on the first.
func ServeListener(ctx context.Context, ln net.Listener, h http.Handler, log *slog.Logger, name string, attrs ...any) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Info(name+": serving on "+ln.Addr().String(), attrs...)
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		log.Info(name + ": shut down")
		return nil
	case err := <-errc:
		return err
	}
}

// MountPprof serves net/http/pprof under /debug/pprof/ on mux, for
// CPU/heap profiling of a live daemon.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
