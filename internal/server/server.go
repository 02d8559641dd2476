// Package server implements the Rover server: the fixed host that is the
// home of a set of RDOs.
//
// "The Rover server ... authenticates requests from client applications,
// mediates access to RDOs, and provides a[n] execution environment for
// RDOs from client applications." Concretely, this package registers the
// rover.* services on a QRPC server engine and implements:
//
//   - import with version-based revalidation (NotModified replies),
//   - export with conflict detection and type-specific resolution,
//   - server-side method execution in a restricted sandbox (the paper's
//     dynamic placement: run at the server when shipping the object would
//     cost more),
//   - object creation, stat, listing (prefetch planning),
//   - change subscriptions with invalidation callbacks,
//   - the manual-repair queue for unresolved conflicts.
package server

import (
	"errors"
	"fmt"
	"sync"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/resolve"
	"rover/internal/rscript"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Config configures a Rover server.
type Config struct {
	// Engine is the QRPC server engine to register services on. Required.
	Engine *qrpc.Server
	// Store holds the objects; a fresh one is created when nil. When it is a
	// store.Stager, handlers mutate through its Staged view and the engine's
	// durability barrier is its Sync, so a batched chunk of exports pays
	// one store fsync.
	Store store.Backend
	// Resolvers maps object types to conflict resolvers; a Replay-fallback
	// registry is created when nil.
	Resolvers *resolve.Registry
	// InvokeBudget bounds server-side method execution steps (0 = the
	// restricted sandbox default).
	InvokeBudget int64
}

// Server is a Rover object server.
type Server struct {
	engine *qrpc.Server
	store  store.Backend
	// mut is what handlers mutate through: the store's Staged view when it
	// is a Stager (syncStaged is then its Sync), else the store itself.
	mut        store.Backend
	syncStaged func() error
	resolvers  *resolve.Registry
	budget     int64

	mu    sync.Mutex
	subs  map[string][]urn.URN // clientID -> subscribed prefixes
	locks map[urn.URN]string   // check-out locks: object -> holder clientID
	stats Stats
}

// Stats counts object-service activity the engine layer cannot see.
type Stats struct {
	// DeltasServed counts imports answered with an operation delta;
	// DeltaFallbacks counts revalidations that wanted a delta but had to
	// ship the full object (history pruned or the delta was not smaller).
	DeltasServed   int64
	DeltaFallbacks int64
	// DuplicateExports counts redelivered exports recognized as already
	// committed (store.WasCommitted) and answered without re-applying.
	DuplicateExports int64
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// New builds a server and registers its services on the engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Engine is required")
	}
	s := &Server{
		engine:    cfg.Engine,
		store:     cfg.Store,
		resolvers: cfg.Resolvers,
		budget:    cfg.InvokeBudget,
		subs:      make(map[string][]urn.URN),
		locks:     make(map[urn.URN]string),
	}
	if s.store == nil {
		s.store = store.New()
	}
	s.mut = s.store
	if st, ok := s.store.(store.Stager); ok {
		s.mut, s.syncStaged = st.Staged(), st.Sync
		cfg.Engine.SetDurable(st.Sync)
	}
	if s.resolvers == nil {
		s.resolvers = resolve.NewRegistry(nil)
	}
	// Reads skip the session journal: they read only published state
	// through s.store (never the staged view, and a staged object's Get
	// syncs it first), so no reply shows state a crash could lose, and a
	// redelivered read simply runs again against recovered state.
	cfg.Engine.RegisterRead(proto.SvcImport, s.handleImport)
	cfg.Engine.RegisterRead(proto.SvcStat, s.handleStat)
	cfg.Engine.RegisterRead(proto.SvcList, s.handleList)
	cfg.Engine.RegisterRead(proto.SvcConflicts, s.handleConflicts)
	cfg.Engine.Register(proto.SvcExport, s.handleExport)
	cfg.Engine.Register(proto.SvcInvoke, s.handleInvoke)
	cfg.Engine.Register(proto.SvcCreate, s.handleCreate)
	cfg.Engine.Register(proto.SvcSubscribe, s.handleSubscribe)
	cfg.Engine.Register(proto.SvcCheckout, s.handleCheckout)
	cfg.Engine.Register(proto.SvcCheckin, s.handleCheckin)
	return s, nil
}

// ErrCheckedOut marks update refusals caused by another client's
// check-out lock. The message carries the holder's identity so clients
// can display "locked by X".
var ErrCheckedOut = errors.New("checked out")

// checkLock returns an error when u is checked out by someone other than
// clientID.
func (s *Server) checkLock(u urn.URN, clientID string) error {
	s.mu.Lock()
	holder, locked := s.locks[u]
	s.mu.Unlock()
	if locked && holder != clientID {
		return fmt.Errorf("server: %s is %w by %q", u, ErrCheckedOut, holder)
	}
	return nil
}

func (s *Server) handleCheckout(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.CheckoutArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	if _, err := s.store.Version(args.URN); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	holder, locked := s.locks[args.URN]
	rep := proto.CheckoutReply{}
	switch {
	case !locked || holder == clientID:
		s.locks[args.URN] = clientID
		rep.Granted = true
	case args.Force:
		s.locks[args.URN] = clientID
		rep.Granted = true
		rep.Holder = holder // displaced
	default:
		rep.Holder = holder
	}
	return wire.Marshal(&rep), nil
}

func (s *Server) handleCheckin(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.CheckinArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	holder, locked := s.locks[args.URN]
	if !locked {
		return nil, fmt.Errorf("server: %s is not checked out", args.URN)
	}
	if holder != clientID {
		return nil, fmt.Errorf("server: %s is checked out by %q, not you", args.URN, holder)
	}
	delete(s.locks, args.URN)
	return nil, nil
}

// Locks returns a snapshot of the check-out table (diagnostics).
func (s *Server) Locks() map[urn.URN]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[urn.URN]string, len(s.locks))
	for u, h := range s.locks {
		out[u] = h
	}
	return out
}

// Store exposes the object store (server administration, tests, seeding).
func (s *Server) Store() store.Backend { return s.store }

// Resolvers exposes the resolver registry for app-type registration.
func (s *Server) Resolvers() *resolve.Registry { return s.resolvers }

func (s *Server) handleImport(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.ImportArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	obj, err := s.store.Get(args.URN)
	if err != nil {
		return nil, err
	}
	rep := proto.ImportReply{}
	if args.HaveVersion != 0 && args.HaveVersion == obj.Version {
		rep.NotModified = true
		return wire.Marshal(&rep), nil
	}
	rep.Object = obj.Encode()
	full := wire.Marshal(&rep)
	if args.HaveVersion == 0 || args.HaveVersion > obj.Version {
		// HaveVersion 0 never yields a delta — the client's checksum-
		// mismatch fallback re-imports with 0 and relies on that to
		// terminate. A client AHEAD of the server (we were restored from
		// an old backup) needs the authoritative full object: its "newer"
		// copy describes a history this server no longer has.
		return full, nil
	}
	ops, newVer, ok := s.store.OpsSince(args.URN, args.HaveVersion)
	if !ok || newVer != obj.Version {
		// History pruned, interrupted by an opaque commit, or the object
		// moved between Get and OpsSince: ship the full object.
		s.countDelta(false)
		return full, nil
	}
	d := proto.ImportReply{
		Delta:       true,
		FromVersion: args.HaveVersion,
		NewVersion:  newVer,
		Ops:         ops,
		Check:       proto.ObjectCheck(rep.Object),
	}
	if enc := wire.Marshal(&d); len(enc) < len(full) {
		s.countDelta(true)
		return enc, nil
	}
	s.countDelta(false)
	return full, nil // the delta didn't actually save bytes
}

func (s *Server) countDelta(served bool) {
	s.mu.Lock()
	if served {
		s.stats.DeltasServed++
	} else {
		s.stats.DeltaFallbacks++
	}
	s.mu.Unlock()
}

func (s *Server) handleExport(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.ExportArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	if len(args.Invs) == 0 {
		return nil, errors.New("server: export with no operations")
	}
	if err := s.checkLock(args.URN, clientID); err != nil {
		return nil, err
	}
	// Retry loop: Commit detects races with concurrent exports of the same
	// object and we re-run resolution against the fresh state.
	for attempt := 0; attempt < 16; attempt++ {
		obj, err := s.store.Get(args.URN)
		if err != nil {
			return nil, err
		}
		cur := obj.Version
		rep, commit, err := s.applyExport(clientID, obj, cur, &args)
		if err != nil {
			return nil, err
		}
		if commit {
			var newVer uint64
			if rep.Outcome == proto.OutcomeCommitted {
				// A clean commit is a deterministic replay of the shipped
				// operations, so record them as delta-import history. A
				// RESOLVED outcome is not: the resolver may have applied
				// different operations than the client sent, so recording
				// args.Invs would corrupt client-side delta replay — the
				// plain Commit below clears the object's history instead.
				// The exporting client is recorded with the entry so a
				// redelivered copy of this export is recognized as already
				// committed (WasCommitted), here and at the replica peer.
				newVer, err = s.mut.CommitOpsBy(obj, cur, args.Invs, clientID)
			} else {
				newVer, err = s.mut.Commit(obj, cur)
			}
			if err != nil {
				continue // lost a race; re-resolve on fresh state
			}
			// Reply with exactly what was committed, at newVer: a re-read
			// could see a later commit, and would force a staged record
			// durable ahead of the chunk's barrier.
			rep.NewVersion = newVer
			obj.Version = newVer
			rep.Object = obj.Encode()
			s.notifyInvalidate(clientID, args.URN, newVer)
			return wire.Marshal(rep), nil
		}
		// Conflict (rejected): reply with the server's pristine state. The
		// working copy `obj` must NOT be used here — a rejecting resolver
		// may have partially replayed the operations into it before the
		// failing one, and shipping that taint would make clients adopt
		// updates that were never committed.
		pristine, err := s.store.Get(args.URN)
		if err != nil {
			return nil, err
		}
		rep.NewVersion = pristine.Version
		rep.Object = pristine.Encode()
		return wire.Marshal(rep), nil
	}
	return nil, fmt.Errorf("server: export of %s starved by concurrent commits", args.URN)
}

// applyExport runs the operations (directly or through the resolver)
// against obj. It returns the reply skeleton and whether to commit obj.
func (s *Server) applyExport(clientID string, obj *rdo.Object, cur uint64, args *proto.ExportArgs) (*proto.ExportReply, bool, error) {
	replay := s.replayFunc(obj, args.Invs)
	switch {
	case args.BaseVer == cur:
		// No concurrent update: plain commit path.
		if err := replay(); err != nil {
			// Deterministic application failure, not a concurrency
			// conflict — surface as an application error so the client
			// sees exactly what its method said.
			return nil, false, err
		}
		return &proto.ExportReply{Outcome: proto.OutcomeCommitted}, true, nil
	case args.BaseVer < cur:
		// Before treating this as a conflict, check whether the batch is a
		// redelivery of an export that already committed at BaseVer+1 — the
		// original reply was lost in a crash, or the client failed over to
		// this replica after the mutation replicated but before its cached
		// reply did. Re-applying (or resolving) it would execute accepted
		// work twice; answer committed instead.
		if s.store.WasCommitted(args.URN, args.BaseVer, args.Invs, clientID) {
			s.mu.Lock()
			s.stats.DuplicateExports++
			s.mu.Unlock()
			return &proto.ExportReply{Outcome: proto.OutcomeCommitted,
				Message: "already committed (redelivered export)"}, false, nil
		}
		// Conflict: the object moved since the client imported it.
		res, err := s.resolvers.For(obj.Type)(&resolve.Request{
			Object:         obj,
			BaseVersion:    args.BaseVer,
			CurrentVersion: cur,
			Invocations:    args.Invs,
			Replay:         replay,
		})
		if err != nil {
			return nil, false, fmt.Errorf("server: resolver for %q: %w", obj.Type, err)
		}
		if res.Applied {
			return &proto.ExportReply{Outcome: proto.OutcomeResolved, Message: res.Message}, true, nil
		}
		s.store.AddConflict(store.Conflict{
			URN:      args.URN,
			ClientID: clientID,
			BaseVer:  args.BaseVer,
			AtVer:    cur,
			Invs:     args.Invs,
			Message:  res.Message,
		})
		return &proto.ExportReply{Outcome: proto.OutcomeConflict, Message: res.Message}, false, nil
	default:
		// Client claims a version from the future: the server lost state
		// (restored from an old snapshot). Reflect as conflict.
		msg := fmt.Sprintf("client base version %d ahead of server %d", args.BaseVer, cur)
		s.store.AddConflict(store.Conflict{
			URN: args.URN, ClientID: clientID,
			BaseVer: args.BaseVer, AtVer: cur,
			Invs: args.Invs, Message: msg,
		})
		return &proto.ExportReply{Outcome: proto.OutcomeConflict, Message: msg}, false, nil
	}
}

// replayFunc builds the op-replay closure used by both the direct path and
// resolvers. Shipped operations run in the restricted sandbox: they are
// client-chosen method names on server-held code, but budgets still apply.
func (s *Server) replayFunc(obj *rdo.Object, invs []rdo.Invocation) func() error {
	var env *rdo.Env
	return func() error {
		if env == nil {
			e, err := rdo.NewEnv(obj, rdo.EnvOptions{
				Sandbox:      rdo.Restricted,
				StepBudget:   s.budget,
				HostCommands: s.hostCommands(),
			})
			if err != nil {
				return err
			}
			env = e
		}
		for _, inv := range invs {
			if _, err := env.Invoke(inv.Method, inv.Args...); err != nil {
				return err
			}
		}
		return nil
	}
}

// hostCommands exposes read-only access to other objects' committed state
// to server-side RDO code ("the object model ... support[s] method
// execution at the servers", and methods may compose other objects).
func (s *Server) hostCommands() map[string]rscript.CmdFunc {
	return map[string]rscript.CmdFunc{
		"rover.getstate": func(ip *rscript.Interp, cmdArgs []string) (string, error) {
			if len(cmdArgs) < 2 || len(cmdArgs) > 3 {
				return "", errors.New("usage: rover.getstate urn key ?default?")
			}
			u, err := urn.Parse(cmdArgs[0])
			if err != nil {
				return "", err
			}
			other, err := s.store.Get(u)
			if err != nil {
				return "", err
			}
			if v, ok := other.Get(cmdArgs[1]); ok {
				return v, nil
			}
			if len(cmdArgs) == 3 {
				return cmdArgs[2], nil
			}
			return "", fmt.Errorf("no key %q in %s", cmdArgs[1], u)
		},
	}
}

func (s *Server) handleInvoke(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.InvokeArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	if err := s.checkLock(args.URN, clientID); err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 16; attempt++ {
		obj, err := s.store.Get(args.URN)
		if err != nil {
			return nil, err
		}
		cur := obj.Version
		env, err := rdo.NewEnv(obj, rdo.EnvOptions{
			Sandbox:      rdo.Restricted,
			StepBudget:   s.budget,
			HostCommands: s.hostCommands(),
		})
		if err != nil {
			return nil, err
		}
		result, err := env.Invoke(args.Method, args.Args...)
		if err != nil {
			return nil, err
		}
		rep := proto.InvokeReply{Result: result}
		if len(env.TakeOps()) > 0 {
			// A server-side invoke is as deterministic as a replayed
			// export; record it so revalidating clients can fetch a delta.
			inv := rdo.Invocation{Object: args.URN, Method: args.Method, Args: args.Args, BaseVer: cur}
			newVer, err := s.mut.CommitOps(obj, cur, []rdo.Invocation{inv})
			if err != nil {
				continue // raced; re-execute against fresh state
			}
			rep.Mutated = true
			rep.NewVersion = newVer
			s.notifyInvalidate(clientID, args.URN, newVer)
		} else {
			rep.NewVersion = cur
		}
		return wire.Marshal(&rep), nil
	}
	return nil, fmt.Errorf("server: invoke on %s starved by concurrent commits", args.URN)
}

func (s *Server) handleCreate(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.CreateArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	obj, err := rdo.Decode(args.Object)
	if err != nil {
		return nil, err
	}
	// Validate that the code loads before accepting the object.
	if _, err := rdo.NewEnv(obj.Clone(), rdo.EnvOptions{Sandbox: rdo.Restricted, StepBudget: s.budget}); err != nil {
		return nil, err
	}
	if err := s.mut.Create(obj); err != nil {
		// Idempotent redelivery safety net: creating the same object twice
		// with identical content succeeds (the QRPC reply cache normally
		// absorbs duplicates; this covers cross-incarnation repeats).
		if errors.Is(err, store.ErrExists) {
			existing, gerr := s.store.Get(obj.URN)
			if gerr == nil && existing.Code == obj.Code {
				return wire.Marshal(&proto.CreateReply{Version: existing.Version}), nil
			}
		}
		return nil, err
	}
	s.notifyInvalidate(clientID, obj.URN, 1)
	return wire.Marshal(&proto.CreateReply{Version: 1}), nil
}

func (s *Server) handleStat(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.StatArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	rep := proto.StatReply{}
	if obj, err := s.store.Get(args.URN); err == nil {
		rep.Exists = true
		rep.Version = obj.Version
		rep.Type = obj.Type
		rep.Size = uint64(obj.SizeEstimate())
	}
	return wire.Marshal(&rep), nil
}

func (s *Server) handleList(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.ListArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	entries := s.store.List(args.Prefix)
	rep := proto.ListReply{Entries: make([]proto.ListEntry, 0, len(entries))}
	for _, e := range entries {
		rep.Entries = append(rep.Entries, proto.ListEntry{URN: e.URN, Version: e.Version, Type: e.Type})
	}
	return wire.Marshal(&rep), nil
}

func (s *Server) handleSubscribe(clientID string, req qrpc.Request) ([]byte, error) {
	var args proto.SubscribeArgs
	if err := wire.Unmarshal(req.Args, &args); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.subs[clientID] = append(s.subs[clientID], args.Prefix)
	s.mu.Unlock()
	return nil, nil
}

func (s *Server) handleConflicts(clientID string, req qrpc.Request) ([]byte, error) {
	var rep proto.ConflictsReply
	for _, c := range s.store.Conflicts() {
		rep.Conflicts = append(rep.Conflicts, proto.ConflictEntry{
			URN: c.URN, ClientID: c.ClientID,
			BaseVer: c.BaseVer, AtVer: c.AtVer, Message: c.Message,
		})
	}
	return wire.Marshal(&rep), nil
}

// notifyInvalidate pushes change callbacks to subscribed clients other
// than the originator. A staged commit is made durable first: a callback
// must never announce a version a crash could lose.
func (s *Server) notifyInvalidate(originClientID string, u urn.URN, newVersion uint64) {
	s.mu.Lock()
	var targets []string
	for clientID, prefixes := range s.subs {
		if clientID == originClientID {
			continue
		}
		for _, p := range prefixes {
			if u.HasPrefix(p) {
				targets = append(targets, clientID)
				break
			}
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	if s.syncStaged != nil && s.syncStaged() != nil {
		return // not durable: callbacks are advisory, so drop them
	}
	payload := wire.Marshal(&proto.InvalidateEvent{URN: u, NewVersion: newVersion})
	for _, clientID := range targets {
		s.engine.SendCallback(clientID, proto.TopicInvalidate, payload)
	}
}
