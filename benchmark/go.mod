module ranksql/benchmark

go 1.24

require ranksql v0.0.0

replace ranksql => ../
