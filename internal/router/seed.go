package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"ranksql/internal/server"
)

// SeedVia loads a named example dataset through a running router (or a
// single ranksqld, which speaks the same protocol): CREATE TABLE with a
// partition key, partitioned CSV ingest, then index DDL fan-out, in the
// order server.Dataset.Load runs them. The backends must already have the
// dataset's scorers registered (server.RegisterScorers) — scorers are Go
// code and cannot travel over the wire.
func SeedVia(client *http.Client, base, dataset string, n int) error {
	d, err := server.LookupDataset(dataset)
	if d == nil {
		return err
	}
	if client == nil {
		client = http.DefaultClient
	}
	// post sends one request and reports the error its JSON answer
	// carries, prefixed by what.
	post := func(path, contentType string, body io.Reader, what string) error {
		resp, err := client.Post(base+path, contentType, body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var out struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		if out.Error != "" {
			return fmt.Errorf("%s: %s", what, out.Error)
		}
		return nil
	}
	return d.Load(n, func(sqlText, partitionKey string) error {
		body, _ := json.Marshal(map[string]string{"sql": sqlText, "partition_key": partitionKey})
		return post("/exec", "application/json", bytes.NewReader(body), sqlText)
	}, func(table, csvBody string) error {
		return post("/load?table="+url.QueryEscape(table), "text/csv", strings.NewReader(csvBody), "load "+table)
	})
}
