package serve_test

import (
	"runtime"
	"testing"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

// BenchmarkBinaryInvoke measures one anonymous YCSB invocation over one
// pipelined loopback binary connection, end to end: client framing and
// combined writes, the server's reader, Session.Submit, the engine, the
// batched reply writer and the client's demultiplexer. Client, server
// and engine share the process, so allocs/op counts every layer.
func BenchmarkBinaryInvoke(b *testing.B) {
	srv := startServer(b, "NO_WAIT", 2, abyss.ServeConfig{}, 0)
	defer srv.Shutdown()
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := serve.InvokeRequest{Partition: -1}
	for i := 0; i < 1000; i++ { // warm buffers, maps and pools
		c.Invoke(req)
	}
	// Keep about half the window outstanding, so nothing is shed.
	b.SetParallelism(max(1, serve.DefaultWindow/2/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rep, err := c.Invoke(req)
			if err != nil {
				b.Error(err)
				return
			}
			if rep.Outcome != serve.WireCommitted && rep.Outcome != serve.WireUserAbort {
				b.Errorf("outcome %s", serve.OutcomeName(rep.Outcome))
				return
			}
		}
	})
	b.StopTimer()
}
