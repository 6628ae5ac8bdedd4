package main

// pins are the input digests of the default seed (2016): per workload, the
// digest of the clients' op streams and of the oracle answers. A run with
// the default seed whose digests differ fails, so a change to
// internal/workload (or to the templates here) that silently alters what
// the program is fed cannot pass for a change in its speed. The three hot
// workloads share one stream, engine-exec and engine-wide another.
var pins = map[string]struct{ stream, oracle string }{
	"engine-hot":   {"481904d522fc3932", "8b04a1fd06fae0c5"},
	"engine-exec":  {"6a5f062b8ec29494", "9a895cb2f31bc7d5"},
	"engine-wide":  {"6a5f062b8ec29494", "9a895cb2f31bc7d5"},
	"engine-adhoc": {"babab50930018a33", "2fdaee05c2a1df8c"},
	"engine-write": {"057e8f6f87b7867c", "8b04a1fd06fae0c5"},
	"sharded-hot":  {"481904d522fc3932", "8b04a1fd06fae0c5"},
	"http-hot":     {"481904d522fc3932", "8b04a1fd06fae0c5"},
}
