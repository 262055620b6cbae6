// Command ranksql is an interactive shell for the RankSQL engine.
//
//	$ go run ./cmd/ranksql
//	ranksql> CREATE TABLE hotel (name TEXT, price FLOAT)
//	ranksql> INSERT INTO hotel VALUES ('Grand', 120), ('Budget', 40)
//	ranksql> SELECT name FROM hotel ORDER BY cheap(price) LIMIT 1
//
// Meta commands:
//
//	.tables              list tables
//	.scorers             list registered scorers
//	.load t file.csv     bulk-load a headerless CSV file into table t
//	.timing on|off       toggle per-query timing
//	.explain <select>    show the optimized plan
//	.quit                exit
//
// SQL-level EXPLAIN works too, and EXPLAIN ANALYZE executes the query
// and prints the operator tree with per-operator rows, depth-k, wall
// time and call counts.
//
// The shell registers a few generic scorers at startup: cheap(x) =
// max(0, 1 - x/1000), high(x) = min(1, x/1000), close(x, y) =
// 1/(1+|x-y|/10), equal(x, y) = 1 if x = y else 0.
//
// To measure the engine or the daemons, see benchmark/README.md.
package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ranksql"
)

func main() {
	db := ranksql.Open()
	registerBuiltins(db)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	timing := false
	fmt.Println("RankSQL shell — type SQL, or .help")
	for {
		fmt.Print("ranksql> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if quit := meta(db, line, &timing); quit {
				return
			}
			continue
		}
		start := time.Now()
		runSQL(db, line)
		if timing {
			fmt.Printf("(%.3fs)\n", time.Since(start).Seconds())
		}
	}
}

func registerBuiltins(db *ranksql.DB) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(db.RegisterScorer("cheap", func(args []ranksql.Value) float64 {
		return math.Max(0, 1-args[0].Float()/1000)
	}))
	must(db.RegisterScorer("high", func(args []ranksql.Value) float64 {
		return math.Min(1, args[0].Float()/1000)
	}))
	must(db.RegisterScorer("close", func(args []ranksql.Value) float64 {
		return 1 / (1 + math.Abs(args[0].Float()-args[1].Float())/10)
	}, ranksql.WithCost(2)))
	must(db.RegisterScorer("equal", func(args []ranksql.Value) float64 {
		if args[0].String() == args[1].String() {
			return 1
		}
		return 0
	}))
}

func meta(db *ranksql.DB, line string, timing *bool) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Println(".tables | .scorers | .load <table> <file.csv> | .timing on|off | .explain <select> | .quit")
	case ".timing":
		*timing = len(fields) > 1 && fields[1] == "on"
		fmt.Printf("timing %v\n", *timing)
	case ".tables":
		for _, t := range db.Tables() {
			fmt.Println(t)
		}
	case ".scorers":
		fmt.Println("cheap(x)  high(x)  close(x,y)  equal(x,y)  — plus any registered by .go code")
	case ".explain":
		plan, err := db.Explain(strings.TrimSpace(strings.TrimPrefix(line, ".explain")))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(plan)
	case ".load":
		if len(fields) != 3 {
			fmt.Println("usage: .load <table> <file.csv>")
			return false
		}
		f, err := os.Open(fields[2])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		defer f.Close()
		n, err := db.LoadCSV(fields[1], f, false)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("loaded %d rows into %s\n", n, fields[1])
	default:
		fmt.Println("unknown meta command; try .help")
	}
	return false
}

// runSQL dispatches between DDL/DML and SELECT.
func runSQL(db *ranksql.DB, line string) {
	head := strings.ToLower(strings.Fields(line)[0])
	if head == "select" || head == "explain" {
		if head == "explain" {
			// EXPLAIN and EXPLAIN ANALYZE both flow through Query: the
			// former prints the optimized plan, the latter executes the
			// statement and prints the tree with per-operator rows,
			// depth-k, wall time and call counts.
			rows, err := db.Query(line)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			for i := 0; i < rows.Len(); i++ {
				fmt.Println(rows.At(i)[0].Text())
			}
			return
		}
		rows, err := db.Query(line)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printRows(rows)
		return
	}
	res, err := db.Exec(line)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	} else {
		fmt.Printf("%d row(s)\n", res.RowsAffected)
	}
}

func printRows(rows *ranksql.Rows) {
	fmt.Println(strings.Join(rows.Columns, " | "), "| score")
	for rows.Next() {
		cells := make([]string, 0, len(rows.Columns)+1)
		for _, v := range rows.Row() {
			cells = append(cells, v.String())
		}
		fmt.Printf("%s | %.4f\n", strings.Join(cells, " | "), rows.Score())
	}
	fmt.Printf("(%d rows; scanned %d tuples, %d predicate evals)\n",
		rows.Len(), rows.Stats.TuplesScanned, rows.Stats.PredEvals)
}
