//! The three stacks must compute the same things: functional parity
//! between C#-remoting, Java-RMI, and MPI implementations of the same
//! small applications (the paper's premise that only *performance*
//! differs).
//!
//! The MPI side is the floor MPICH stands on: [`PackBuffer`]-packed bytes
//! behind a 4-byte length prefix over a loopback `TcpStream` pair, with no
//! per-message descriptor.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use parc::mpi::PackBuffer;
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::InprocNetwork;
use parc::remoting::{Activator, RemotingError};
use parc::rmi::unicast::FnRemote;
use parc::rmi::{Naming, Registry, RemoteException, UnicastRemoteObject};
use parc::serial::Value;

/// dot(a, b) on the remoting stack.
fn dot_remoting(a: &[f64], b: &[f64]) -> f64 {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint("calc").unwrap();
    ep.objects().register_singleton(
        "Dot",
        Arc::new(FnInvokable(|_: &str, args: &[Value]| {
            let a = args[0].as_f64_array().ok_or(RemotingError::BadArguments {
                method: "dot".into(),
                detail: "a".into(),
            })?;
            let b = args[1].as_f64_array().ok_or(RemotingError::BadArguments {
                method: "dot".into(),
                detail: "b".into(),
            })?;
            Ok(Value::F64(a.iter().zip(b).map(|(x, y)| x * y).sum()))
        })),
    );
    let proxy = Activator::get_object(&net, "inproc://calc/Dot").unwrap();
    proxy
        .call("dot", vec![Value::F64Array(a.to_vec()), Value::F64Array(b.to_vec())])
        .unwrap()
        .as_f64()
        .unwrap()
}

/// dot(a, b) on the RMI stack.
fn dot_rmi(a: &[f64], b: &[f64]) -> f64 {
    let exports = UnicastRemoteObject::new();
    let obj = exports.export(Arc::new(FnRemote(|_: &str, args: &[Value]| {
        let a = args[0].as_f64_array().ok_or(RemoteException::Unmarshal { detail: "a".into() })?;
        let b = args[1].as_f64_array().ok_or(RemoteException::Unmarshal { detail: "b".into() })?;
        Ok(Value::F64(a.iter().zip(b).map(|(x, y)| x * y).sum()))
    })));
    let naming = Naming::new();
    naming.register_registry("host:1050", Registry::new(exports));
    naming.rebind("rmi://host:1050/Dot", obj).unwrap();
    let stub = naming.lookup("rmi://host:1050/Dot").unwrap();
    stub.call_typed::<f64>(
        "dot",
        vec![Value::F64Array(a.to_vec()), Value::F64Array(b.to_vec())],
    )
    .unwrap()
}

/// A connected loopback `TcpStream` pair: one end per rank.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (b, _) = listener.accept().unwrap();
    a.set_nodelay(true).unwrap();
    b.set_nodelay(true).unwrap();
    (a, b)
}

/// Sends `buf` as one message: its length as 4 little-endian bytes, then
/// the packed bytes.
fn send_packed(stream: &mut TcpStream, buf: PackBuffer) {
    let bytes = buf.into_bytes();
    stream.write_all(&(bytes.len() as u32).to_le_bytes()).unwrap();
    stream.write_all(&bytes).unwrap();
}

/// Receives one message sent by [`send_packed`].
fn recv_packed(stream: &mut TcpStream) -> PackBuffer {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut bytes = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut bytes).unwrap();
    PackBuffer::from_bytes(bytes)
}

/// dot(a, b) on the MPI stack: scatter + partial dot + reduce. Rank 0
/// packs each other rank's slices, sends them, adds its own partial to the
/// partials sent back.
fn dot_mpi(a: &[f64], b: &[f64]) -> f64 {
    let n_ranks = 4;
    let chunks_a = split(a, n_ranks);
    let chunks_b = split(b, n_ranks);
    let mut links = Vec::new();
    let mut ranks = Vec::new();
    for _ in 1..n_ranks {
        let (root, mut peer) = socket_pair();
        links.push(root);
        ranks.push(thread::spawn(move || {
            let mut rx = recv_packed(&mut peer);
            let n = rx.unpack_u64().unwrap() as usize;
            let (xs, ys) = (rx.unpack_f64(n).unwrap(), rx.unpack_f64(n).unwrap());
            let mut tx = PackBuffer::new();
            tx.pack_f64(&[xs.iter().zip(&ys).map(|(x, y)| x * y).sum()]);
            send_packed(&mut peer, tx);
        }));
    }
    for (link, (xs, ys)) in links.iter_mut().zip(chunks_a.iter().zip(&chunks_b).skip(1)) {
        let mut tx = PackBuffer::new();
        tx.pack_u64(xs.len() as u64);
        tx.pack_f64(xs);
        tx.pack_f64(ys);
        send_packed(link, tx);
    }
    let mut sum: f64 = chunks_a[0].iter().zip(&chunks_b[0]).map(|(x, y)| x * y).sum();
    for link in &mut links {
        sum += recv_packed(link).unpack_f64(1).unwrap()[0];
    }
    for rank in ranks {
        rank.join().unwrap();
    }
    sum
}

fn split(v: &[f64], parts: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); parts];
    for (i, &x) in v.iter().enumerate() {
        out[i % parts].push(x);
    }
    out
}

#[test]
fn all_three_stacks_agree_on_dot_product() {
    let a: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    let b: Vec<f64> = (0..64).map(|i| 64.0 - i as f64).collect();
    let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    assert!((dot_remoting(&a, &b) - expected).abs() < 1e-9);
    assert!((dot_rmi(&a, &b) - expected).abs() < 1e-9);
    assert!((dot_mpi(&a, &b) - expected).abs() < 1e-9);
}

#[test]
fn rmi_requires_the_five_steps_the_paper_lists() {
    // A lookup without a registered registry fails (step 3 missing)...
    let naming = Naming::new();
    assert!(naming.lookup("rmi://host:1050/Dot").is_err());
    // ...and a stale export fails at call time (step 2 undone).
    let exports = UnicastRemoteObject::new();
    let obj = exports.export(Arc::new(FnRemote(|_: &str, _: &[Value]| Ok(Value::Null))));
    naming.register_registry("host:1050", Registry::new(exports.clone()));
    naming.rebind("rmi://host:1050/Thing", obj).unwrap();
    let stub = naming.lookup("rmi://host:1050/Thing").unwrap();
    assert!(stub.call("m", vec![]).is_ok());
    exports.unexport(obj);
    assert!(matches!(
        stub.call("m", vec![]),
        Err(RemoteException::NoSuchObject { .. })
    ));
}

#[test]
fn mpi_pingpong_carries_the_fig8_payloads() {
    // The Fig. 8 payload sweep over real sockets. Each message puts exactly
    // `4 + 4·n` bytes on the wire for `n` ints: a length and the ints, no
    // descriptor (what Fig. 8a's wire-limit MPI curve rests on).
    let sizes = [1usize, 256, 4096];
    let (mut client, mut server) = socket_pair();
    let echo = thread::spawn(move || {
        let mut wire = Vec::new();
        for _ in 0..sizes.len() {
            let rx = recv_packed(&mut server);
            wire.push(4 + rx.len());
            send_packed(&mut server, rx);
        }
        let mut rest = Vec::new();
        server.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{} bytes beyond the framed messages", rest.len());
        wire
    });
    for n in sizes {
        let payload: Vec<i32> = (0..n as i32).collect();
        let mut tx = PackBuffer::new();
        tx.pack_i32(&payload);
        send_packed(&mut client, tx);
        let mut back = recv_packed(&mut client);
        assert_eq!(back.unpack_i32(n).unwrap(), payload);
        assert_eq!(back.remaining(), 0);
    }
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let wire = echo.join().unwrap();
    assert_eq!(wire, sizes.iter().map(|n| 4 + 4 * n).collect::<Vec<_>>());
}
