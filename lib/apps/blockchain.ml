(** blockchain — the multithreaded proof-of-work miner (§3), the paper's
    multi-threaded scalability workload (Figure 10). Worker threads
    (clone/CLONE_VM) partition the nonce space and double-SHA-256 block
    headers against a leading-zero-bits difficulty target; a mutex guards
    the shared chain. Hash throughput scales with cores. *)


open User

type block = { index : int; hash : string }

(* The block header the miner hashes. [mine_batch] writes the same bytes
   into its scratch in place; this is the definition the tests compare
   it against. *)
let header ~index ~prev_hash ~nonce =
  Bytes.of_string (Printf.sprintf "%d|%s|%d" index prev_hash nonce)

let digits n = if n = 0 then 1 else
  let rec go n acc = if n = 0 then acc else go (n / 10) (acc + 1) in
  go n 0

(* Writes [n]'s decimal digits (n >= 0) into [buf] at [off]; returns
   how many. *)
let put_digits buf off n =
  let len = digits n in
  let rest = ref n in
  for i = len - 1 downto 0 do
    Bytes.set buf (off + i) (Char.unsafe_chr (48 + (!rest mod 10)));
    rest := !rest / 10
  done;
  len

(* Virtual cost of double-hashing [header ~index ~prev_hash ~nonce]
   without building the header: the first round covers
   digits(index) + "|" + prev_hash + "|" + digits(nonce) bytes, the
   second the 32-byte digest. Must agree with [digest_with_blocks]'s
   block counts on the real header (a property in test_user). *)
let hash_cycles ~index ~prev_len ~nonce =
  let len = digits index + 1 + prev_len + 1 + digits nonce in
  (Sha256.blocks_of_length len + Sha256.blocks_of_length 32)
  * Sha256.cycles_per_block

(* The first nonce in [n0, n0 + batch) whose bitcoin-style double
   SHA-256 of [header ~index ~prev_hash ~nonce] has at least
   [difficulty] leading zero bits, with that hash in hex. Runs inside an
   offload thunk, possibly on a pool domain, so the scratch is
   allocated here, per call: "index|prev_hash|" is written once, each
   nonce rewrites only its own digits, and nothing else allocates until
   a winner's digest is rendered. *)
let mine_batch ~index ~prev_hash ~difficulty ~n0 ~batch =
  let di = digits index and plen = String.length prev_hash in
  let prefix = di + 1 + plen + 1 in
  let s = Sha256.scratch (prefix + digits (n0 + batch - 1)) in
  ignore (put_digits s.Sha256.msg 0 index);
  Bytes.set s.Sha256.msg di '|';
  Bytes.blit_string prev_hash 0 s.Sha256.msg (di + 1) plen;
  Bytes.set s.Sha256.msg (prefix - 1) '|';
  let rec scan n =
    if n >= n0 + batch then None
    else begin
      Sha256.double s (prefix + put_digits s.Sha256.msg prefix n);
      if Sha256.zero_bits s >= difficulty then
        Some (n, Sha256.hex (Sha256.result s))
      else scan (n + 1)
    end
  in
  scan n0

(* argv: blockchain [threads] [difficulty_bits] [blocks] *)
let main _env argv =
  Usys.in_frame "blockchain_main" (fun () ->
      let nthreads = match argv with _ :: t :: _ -> int_of_string t | _ -> 4 in
      let difficulty =
        match argv with _ :: _ :: d :: _ -> int_of_string d | _ -> 16
      in
      let target_blocks =
        match argv with _ :: _ :: _ :: b :: _ -> int_of_string b | _ -> 3
      in
      let chain = ref [ { index = 0; hash = "genesis" } ] in
      let chain_lock = Uthread.Mutex.create () in
      let total_hashes = ref 0 in
      let stop = ref false in
      let worker wid () =
        let hashes = ref 0 in
        while not !stop do
          (* snapshot the tip under the lock *)
          let tip = Uthread.Mutex.with_lock chain_lock (fun () -> List.hd !chain) in
          let index = tip.index + 1 in
          (* partitioned nonce space per worker *)
          let nonce = ref (wid * 10_000_000) in
          let found = ref None in
          let batch = 64 in
          while !found = None && not !stop do
            (* One offload per batch: the virtual cost is the precomputed
               sum of the 64 double-hashes; the hashing itself is a pure
               function of (index, tip hash, nonce range) and runs
               host-side — in parallel with the other miners' batches
               when sim_domains > 1. Scanning nonces in ascending order
               keeps the winner identical to the per-hash loop this
               replaces. *)
            let n0 = !nonce in
            let prev_hash = tip.hash in
            let prev_len = String.length prev_hash in
            let cycles = ref 0 in
            for n = n0 to n0 + batch - 1 do
              cycles := !cycles + hash_cycles ~index ~prev_len ~nonce:n
            done;
            let best =
              Usys.offload !cycles (fun () ->
                  mine_batch ~index ~prev_hash ~difficulty ~n0 ~batch)
            in
            hashes := !hashes + batch;
            nonce := n0 + batch;
            (match best with Some _ -> found := best | None -> ());
            (* give the tip a chance to have moved *)
            let current =
              Uthread.Mutex.with_lock chain_lock (fun () -> List.hd !chain)
            in
            (* someone else extended the chain: abandon this height *)
            if current.index >= index then found := Some (-1, "")
          done;
          match !found with
          | Some (n, hex) when n >= 0 ->
              Uthread.Mutex.with_lock chain_lock (fun () ->
                  let tip' = List.hd !chain in
                  if tip'.index = tip.index then begin
                    chain := { index; hash = hex } :: !chain;
                    Usys.printf "[miner %d] block %d nonce=%d hash=%s\n" wid
                      index n (String.sub hex 0 16);
                    if index >= target_blocks then stop := true
                  end)
          | Some _ | None -> ()
        done;
        Uthread.Mutex.with_lock chain_lock (fun () ->
            total_hashes := !total_hashes + !hashes);
        0
      in
      let t0 = Usys.uptime_ms () in
      let tids = List.init nthreads (fun wid -> Uthread.spawn (worker wid)) in
      List.iter (fun tid -> ignore (Uthread.join tid)) tids;
      let dt_ms = max 1 (Usys.uptime_ms () - t0) in
      Usys.printf "mined %d blocks, %d hashes, %.1f kH/s\n"
        (List.hd !chain).index !total_hashes
        (float_of_int !total_hashes /. float_of_int dt_ms);
      0)
