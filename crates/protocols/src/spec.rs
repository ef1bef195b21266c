//! Protocol registry: targets plus their shared Pit documents.

use cmfuzz_fuzzer::Target;

use crate::{Amqp, Coap, Dds, Dns, Dtls, Mqtt};

/// A campaign target: any [`Target`] behind one box, whether one of the
/// six registry servers or a downstream protocol built by a custom
/// [`ProtocolSpec`].
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::Target;
/// use cmfuzz_protocols::{Mqtt, ProtocolTarget};
///
/// let target: ProtocolTarget = Box::new(Mqtt::new());
/// assert_eq!(target.name(), "mosquitto");
/// ```
pub type ProtocolTarget = Box<dyn Target + Send>;

/// One evaluation subject: how to build the target and the Pit document
/// (data + state models) every fuzzer uses against it — "for fairness, we
/// use the same Pit files that specify the data and state models for each
/// protocol" (paper §IV-A).
///
/// Specs are plain static data (names, a builder fn pointer, the Pit
/// text), so they are `Copy`: grid cells capture their own spec by value.
#[derive(Clone, Copy)]
pub struct ProtocolSpec {
    /// Implementation name as Table I reports it (e.g. `"mosquitto"`).
    pub name: &'static str,
    /// The protocol the implementation speaks (e.g. `"MQTT"`).
    pub protocol: &'static str,
    /// Builds a fresh stopped target instance.
    pub build: fn() -> ProtocolTarget,
    /// The shared Pit document.
    pub pit_document: &'static str,
}

impl std::fmt::Debug for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.name)
            .field("protocol", &self.protocol)
            .finish()
    }
}

/// All six evaluation subjects, in Table I order.
#[must_use]
pub fn all_specs() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec {
            name: "mosquitto",
            protocol: "MQTT",
            build: || Box::new(Mqtt::new()),
            pit_document: MQTT_PIT,
        },
        ProtocolSpec {
            name: "libcoap",
            protocol: "CoAP",
            build: || Box::new(Coap::new()),
            pit_document: COAP_PIT,
        },
        ProtocolSpec {
            name: "cyclonedds",
            protocol: "DDS",
            build: || Box::new(Dds::new()),
            pit_document: DDS_PIT,
        },
        ProtocolSpec {
            name: "openssl",
            protocol: "DTLS",
            build: || Box::new(Dtls::new()),
            pit_document: DTLS_PIT,
        },
        ProtocolSpec {
            name: "qpid",
            protocol: "AMQP",
            build: || Box::new(Amqp::new()),
            pit_document: AMQP_PIT,
        },
        ProtocolSpec {
            name: "dnsmasq",
            protocol: "DNS",
            build: || Box::new(Dns::new()),
            pit_document: DNS_PIT,
        },
    ]
}

/// Looks up a subject by implementation name.
#[must_use]
pub fn spec_by_name(name: &str) -> Option<ProtocolSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

const MQTT_PIT: &str = r#"<Peach>
  <DataModel name="Connect">
    <Number name="type" size="8" value="0x10" mutable="false"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <Number name="proto_len" size="16" value="4" mutable="false"/>
      <String name="proto" value="MQTT" mutable="false"/>
      <Number name="level" size="8" value="4"/>
      <Number name="flags" size="8" value="0x02"/>
      <Number name="keepalive" size="16" value="60"/>
      <LengthOf name="cid_len" of="client_id" size="16"/>
      <String name="client_id" value="cmfuzz"/>
    </Block>
  </DataModel>
  <DataModel name="Publish">
    <Number name="type" size="8" value="0x32"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <LengthOf name="topic_len" of="topic" size="16"/>
      <String name="topic" value="sensors/temp"/>
      <Number name="packet_id" size="16" value="1"/>
      <Blob name="payload" value="21.5"/>
    </Block>
  </DataModel>
  <DataModel name="PublishQos2">
    <Number name="type" size="8" value="0x34" mutable="false"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <LengthOf name="topic_len" of="topic" size="16"/>
      <String name="topic" value="actuators/cmd"/>
      <Number name="packet_id" size="16" value="7"/>
      <Blob name="payload" value="on"/>
    </Block>
  </DataModel>
  <DataModel name="PublishQos2Dup">
    <Number name="type" size="8" value="0x3C" mutable="false"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <LengthOf name="topic_len" of="topic" size="16"/>
      <String name="topic" value="actuators/cmd"/>
      <Number name="packet_id" size="16" value="7"/>
      <Blob name="payload" value="on"/>
    </Block>
  </DataModel>
  <DataModel name="Subscribe">
    <Number name="type" size="8" value="0x82" mutable="false"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <Number name="packet_id" size="16" value="2"/>
      <LengthOf name="topic_len" of="topic" size="16"/>
      <String name="topic" value="sensors/#"/>
      <Number name="qos" size="8" value="1"/>
    </Block>
  </DataModel>
  <DataModel name="Pubrel">
    <Number name="type" size="8" value="0x62" mutable="false"/>
    <LengthOf name="rem_len" of="body" size="8"/>
    <Block name="body">
      <Number name="packet_id" size="16" value="1"/>
    </Block>
  </DataModel>
  <DataModel name="Pingreq">
    <Number name="type" size="8" value="0xC0" mutable="false"/>
    <Number name="rem_len" size="8" value="0"/>
  </DataModel>
  <DataModel name="Disconnect">
    <Number name="type" size="8" value="0xE0" mutable="false"/>
    <LengthOf name="rem_len" of="tail" size="8"/>
    <Blob name="tail" value=""/>
  </DataModel>
  <StateModel name="MqttSession" initialState="Init">
    <State name="Init">
      <Action dataModel="Connect" next="Connected" expect="nonempty"/>
    </State>
    <State name="Connected">
      <Action dataModel="Publish" next="Connected"/>
      <Action dataModel="PublishQos2" next="Qos2Flight"/>
      <Action dataModel="Subscribe" next="Connected" expect="nonempty"/>
      <Action dataModel="Pingreq" next="Connected" expect="nonempty"/>
      <Action dataModel="Disconnect" next="Closed" expect="empty"/>
    </State>
    <State name="Qos2Flight">
      <Action dataModel="Pubrel" next="Connected"/>
      <Action dataModel="PublishQos2Dup" next="Connected"/>
    </State>
    <State name="Closed"/>
  </StateModel>
</Peach>"#;

const COAP_PIT: &str = r#"<Peach>
  <DataModel name="Get">
    <Number name="ver_type_tkl" size="8" value="0x40" mutable="false"/>
    <Number name="code" size="8" value="1" mutable="false"/>
    <Number name="message_id" size="16" value="0x1001"/>
    <Blob name="uri_path" valueHex="b3726573"/>
  </DataModel>
  <DataModel name="Post">
    <Number name="ver_type_tkl" size="8" value="0x40" mutable="false"/>
    <Number name="code" size="8" value="2" mutable="false"/>
    <Number name="message_id" size="16" value="0x1002"/>
    <Blob name="uri_path" valueHex="b3726573"/>
    <Blob name="marker" valueHex="ff" mutable="false"/>
    <Blob name="payload" value="created"/>
  </DataModel>
  <DataModel name="PutBlock">
    <Number name="ver_type_tkl" size="8" value="0x40" mutable="false"/>
    <Number name="code" size="8" value="3" mutable="false"/>
    <Number name="message_id" size="16" value="0x1003"/>
    <Choice name="block_option">
      <Blob name="qblock1" valueHex="d10608"/>
      <Blob name="block1" valueHex="d10e08"/>
    </Choice>
    <Blob name="marker" valueHex="ff" mutable="false"/>
    <Blob name="payload" value="chunk-of-body-16"/>
  </DataModel>
  <DataModel name="Observe">
    <Number name="ver_type_tkl" size="8" value="0x40" mutable="false"/>
    <Number name="code" size="8" value="1" mutable="false"/>
    <Number name="message_id" size="16" value="0x1004"/>
    <Blob name="observe_opt" valueHex="6100"/>
  </DataModel>
  <StateModel name="CoapSession" initialState="Init">
    <State name="Init">
      <Action dataModel="Get" next="Ready" expect="nonempty"/>
      <Action dataModel="Post" next="Ready" expect="nonempty"/>
    </State>
    <State name="Ready">
      <Action dataModel="Get" next="Ready" expect="nonempty"/>
      <Action dataModel="Post" next="Ready" expect="nonempty"/>
      <Action dataModel="PutBlock" next="Ready"/>
      <Action dataModel="Observe" next="Ready"/>
    </State>
  </StateModel>
</Peach>"#;

const DNS_PIT: &str = r#"<Peach>
  <DataModel name="Query">
    <Number name="id" size="16" value="0xBEEF"/>
    <Number name="flags" size="16" value="0x0100"/>
    <Number name="qdcount" size="16" value="1"/>
    <Number name="ancount" size="16" value="0" mutable="false"/>
    <Number name="nscount" size="16" value="0" mutable="false"/>
    <Number name="arcount" size="16" value="0"/>
    <Block name="question">
      <LengthOf name="label1_len" of="label1" size="8"/>
      <String name="label1" value="device"/>
      <LengthOf name="label2_len" of="label2" size="8"/>
      <String name="label2" value="local"/>
      <Number name="root" size="8" value="0" mutable="false"/>
      <Number name="qtype" size="16" value="1"/>
      <Number name="qclass" size="16" value="1"/>
    </Block>
  </DataModel>
  <DataModel name="ReverseQuery">
    <Number name="id" size="16" value="0xCAFE"/>
    <Number name="flags" size="16" value="0x0100"/>
    <Number name="qdcount" size="16" value="1"/>
    <Number name="ancount" size="16" value="0" mutable="false"/>
    <Number name="nscount" size="16" value="0" mutable="false"/>
    <Number name="arcount" size="16" value="0"/>
    <Block name="question">
      <LengthOf name="label1_len" of="label1" size="8"/>
      <String name="label1" value="1"/>
      <LengthOf name="label2_len" of="label2" size="8"/>
      <String name="label2" value="in-addr.arpa"/>
      <Number name="root" size="8" value="0" mutable="false"/>
      <Number name="qtype" size="16" value="12"/>
      <Number name="qclass" size="16" value="1"/>
    </Block>
  </DataModel>
  <StateModel name="DnsExchange" initialState="Init">
    <State name="Init">
      <Action dataModel="Query" next="Init" expect="nonempty"/>
      <Action dataModel="ReverseQuery" next="Init" expect="nonempty"/>
    </State>
  </StateModel>
</Peach>"#;

const DTLS_PIT: &str = r#"<Peach>
  <DataModel name="ClientHello">
    <Number name="content_type" size="8" value="22" mutable="false"/>
    <Number name="version" size="16" value="0xFEFD" mutable="false"/>
    <Number name="epoch" size="16" value="0"/>
    <Blob name="seq" valueHex="000000000001" mutable="false"/>
    <LengthOf name="rec_len" of="handshake" size="16"/>
    <Block name="handshake">
      <Number name="hs_type" size="8" value="1" mutable="false"/>
      <LengthOf name="hs_len" of="hello_body" size="24"/>
      <Number name="msg_seq" size="16" value="0"/>
      <Number name="frag_off" size="24" value="0"/>
      <LengthOf name="frag_len" of="hello_body" size="24"/>
      <Block name="hello_body">
        <Number name="client_version" size="16" value="0xFEFD"/>
        <Blob name="random" valueHex="00000000000000000000000000000000000000000000000000000000000000ab" mutable="false"/>
        <Number name="session_len" size="8" value="0"/>
        <LengthOf name="cookie_len" of="cookie" size="8"/>
        <Blob name="cookie" value="CMFZ"/>
        <LengthOf name="suites_len" of="suites" size="16"/>
        <Blob name="suites" valueHex="130113021303"/>
        <Number name="comp_len" size="8" value="1"/>
        <Number name="comp_null" size="8" value="0"/>
      </Block>
    </Block>
  </DataModel>
  <DataModel name="ClientKeyExchange">
    <Number name="content_type" size="8" value="22" mutable="false"/>
    <Number name="version" size="16" value="0xFEFD" mutable="false"/>
    <Number name="epoch" size="16" value="0"/>
    <Blob name="seq" valueHex="000000000002" mutable="false"/>
    <LengthOf name="rec_len" of="handshake" size="16"/>
    <Block name="handshake">
      <Number name="hs_type" size="8" value="16" mutable="false"/>
      <LengthOf name="hs_len" of="kx_body" size="24"/>
      <Number name="msg_seq" size="16" value="1"/>
      <Number name="frag_off" size="24" value="0"/>
      <LengthOf name="frag_len" of="kx_body" size="24"/>
      <Blob name="kx_body" valueHex="0020aabbccdd"/>
    </Block>
  </DataModel>
  <DataModel name="Finished">
    <Number name="content_type" size="8" value="22" mutable="false"/>
    <Number name="version" size="16" value="0xFEFD" mutable="false"/>
    <Number name="epoch" size="16" value="0"/>
    <Blob name="seq" valueHex="000000000003" mutable="false"/>
    <LengthOf name="rec_len" of="handshake" size="16"/>
    <Block name="handshake">
      <Number name="hs_type" size="8" value="20" mutable="false"/>
      <LengthOf name="hs_len" of="fin_body" size="24"/>
      <Number name="msg_seq" size="16" value="2"/>
      <Number name="frag_off" size="24" value="0"/>
      <LengthOf name="frag_len" of="fin_body" size="24"/>
      <Blob name="fin_body" valueHex="0102030405060708090a0b0c"/>
    </Block>
  </DataModel>
  <DataModel name="AppData">
    <Number name="content_type" size="8" value="23" mutable="false"/>
    <Number name="version" size="16" value="0xFEFD" mutable="false"/>
    <Number name="epoch" size="16" value="1"/>
    <Blob name="seq" valueHex="000000000004" mutable="false"/>
    <LengthOf name="rec_len" of="app_body" size="16"/>
    <Blob name="app_body" value="telemetry"/>
  </DataModel>
  <StateModel name="DtlsHandshake" initialState="Init">
    <State name="Init">
      <Action dataModel="ClientHello" next="HelloDone" expect="nonempty"/>
    </State>
    <State name="HelloDone">
      <Action dataModel="ClientKeyExchange" next="KeyDone"/>
      <Action dataModel="ClientHello" next="HelloDone" expect="nonempty"/>
    </State>
    <State name="KeyDone">
      <Action dataModel="Finished" next="Established"/>
    </State>
    <State name="Established">
      <Action dataModel="AppData" next="Established"/>
      <Action dataModel="ClientHello" next="HelloDone"/>
    </State>
  </StateModel>
</Peach>"#;

const AMQP_PIT: &str = r#"<Peach>
  <DataModel name="ProtocolHeader">
    <Blob name="magic" value="AMQP" mutable="false"/>
    <Blob name="version" valueHex="00000901"/>
  </DataModel>
  <DataModel name="StartOk">
    <Number name="frame_type" size="8" value="1" mutable="false"/>
    <Number name="channel" size="16" value="0"/>
    <LengthOf name="size" of="payload" size="32"/>
    <Block name="payload">
      <Number name="class" size="16" value="10" mutable="false"/>
      <Number name="method" size="16" value="11" mutable="false"/>
      <LengthOf name="mech_len" of="mechanism" size="8"/>
      <String name="mechanism" value="PLAIN"/>
    </Block>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <DataModel name="ConnectionOpen">
    <Number name="frame_type" size="8" value="1" mutable="false"/>
    <Number name="channel" size="16" value="0"/>
    <LengthOf name="size" of="payload" size="32"/>
    <Block name="payload">
      <Number name="class" size="16" value="10" mutable="false"/>
      <Number name="method" size="16" value="40" mutable="false"/>
      <LengthOf name="vhost_len" of="vhost" size="8"/>
      <String name="vhost" value="/"/>
    </Block>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <DataModel name="ChannelOpen">
    <Number name="frame_type" size="8" value="1" mutable="false"/>
    <Number name="channel" size="16" value="1"/>
    <LengthOf name="size" of="payload" size="32"/>
    <Block name="payload">
      <Number name="class" size="16" value="20" mutable="false"/>
      <Number name="method" size="16" value="10" mutable="false"/>
    </Block>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <DataModel name="QueueDeclare">
    <Number name="frame_type" size="8" value="1" mutable="false"/>
    <Number name="channel" size="16" value="1"/>
    <LengthOf name="size" of="payload" size="32"/>
    <Block name="payload">
      <Number name="class" size="16" value="50" mutable="false"/>
      <Number name="method" size="16" value="10" mutable="false"/>
      <LengthOf name="queue_len" of="queue" size="8"/>
      <String name="queue" value="telemetry"/>
      <Number name="flags" size="8" value="0"/>
    </Block>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <DataModel name="BasicPublish">
    <Number name="frame_type" size="8" value="1" mutable="false"/>
    <Number name="channel" size="16" value="1"/>
    <LengthOf name="size" of="payload" size="32"/>
    <Block name="payload">
      <Number name="class" size="16" value="60" mutable="false"/>
      <Number name="method" size="16" value="40" mutable="false"/>
      <Blob name="routing" value="sensor.key"/>
    </Block>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <DataModel name="Heartbeat">
    <Number name="frame_type" size="8" value="8" mutable="false"/>
    <Number name="channel" size="16" value="0"/>
    <Number name="size" size="32" value="0"/>
    <Number name="frame_end" size="8" value="0xCE" mutable="false"/>
  </DataModel>
  <StateModel name="AmqpSession" initialState="Init">
    <State name="Init">
      <Action dataModel="ProtocolHeader" next="Started" expect="nonempty"/>
    </State>
    <State name="Started">
      <Action dataModel="StartOk" next="Authed" expect="nonempty"/>
    </State>
    <State name="Authed">
      <Action dataModel="ConnectionOpen" next="Opened"/>
    </State>
    <State name="Opened">
      <Action dataModel="ChannelOpen" next="Opened"/>
      <Action dataModel="QueueDeclare" next="Opened"/>
      <Action dataModel="BasicPublish" next="Opened"/>
      <Action dataModel="Heartbeat" next="Opened"/>
    </State>
  </StateModel>
</Peach>"#;

const DDS_PIT: &str = r#"<Peach>
  <DataModel name="DataMsg">
    <Blob name="magic" value="RTPS" mutable="false"/>
    <Number name="version" size="16" value="0x0201" mutable="false"/>
    <Number name="vendor" size="16" value="0x0101"/>
    <Blob name="guid_prefix" valueHex="0102030405060708090a0b0c" mutable="false"/>
    <Number name="sub_id" size="8" value="0x15" mutable="false"/>
    <Number name="sub_flags" size="8" value="0"/>
    <LengthOf name="sub_len" of="sub_body" size="16"/>
    <Block name="sub_body">
      <Number name="reader_id" size="32" value="0"/>
      <Number name="writer_seq" size="8" value="1"/>
      <Blob name="sample" value="reading"/>
    </Block>
  </DataModel>
  <DataModel name="HeartbeatMsg">
    <Blob name="magic" value="RTPS" mutable="false"/>
    <Number name="version" size="16" value="0x0201" mutable="false"/>
    <Number name="vendor" size="16" value="0x0101"/>
    <Blob name="guid_prefix" valueHex="0102030405060708090a0b0c" mutable="false"/>
    <Number name="sub_id" size="8" value="0x07" mutable="false"/>
    <Number name="sub_flags" size="8" value="0"/>
    <LengthOf name="sub_len" of="sub_body" size="16"/>
    <Blob name="sub_body" valueHex="0000000100000002"/>
  </DataModel>
  <DataModel name="AckNackMsg">
    <Blob name="magic" value="RTPS" mutable="false"/>
    <Number name="version" size="16" value="0x0201" mutable="false"/>
    <Number name="vendor" size="16" value="0x0101"/>
    <Blob name="guid_prefix" valueHex="0102030405060708090a0b0c" mutable="false"/>
    <Number name="sub_id" size="8" value="0x06" mutable="false"/>
    <Number name="sub_flags" size="8" value="0"/>
    <LengthOf name="sub_len" of="sub_body" size="16"/>
    <Blob name="sub_body" valueHex="00000001"/>
  </DataModel>
  <DataModel name="Announce">
    <Blob name="magic" value="RTPS" mutable="false"/>
    <Number name="version" size="16" value="0x0201" mutable="false"/>
    <Number name="vendor" size="16" value="0x0101"/>
    <Blob name="guid_prefix" valueHex="0102030405060708090a0b0c" mutable="false"/>
    <Number name="sub_id" size="8" value="0x15" mutable="false"/>
    <Number name="sub_flags" size="8" value="0"/>
    <Number name="sub_len" size="16" value="0"/>
  </DataModel>
  <StateModel name="DdsExchange" initialState="Init">
    <State name="Init">
      <Action dataModel="Announce" next="Discovered"/>
    </State>
    <State name="Discovered">
      <Action dataModel="DataMsg" next="Discovered"/>
      <Action dataModel="HeartbeatMsg" next="Discovered"/>
      <Action dataModel="AckNackMsg" next="Discovered"/>
      <Action dataModel="Announce" next="Discovered"/>
    </State>
  </StateModel>
</Peach>"#;

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_config_model::{extract_model, ResolvedConfig};
    use cmfuzz_coverage::CoverageMap;
    use cmfuzz_fuzzer::pit;

    #[test]
    fn all_six_subjects_present() {
        let names: Vec<_> = all_specs().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "mosquitto",
                "libcoap",
                "cyclonedds",
                "openssl",
                "qpid",
                "dnsmasq"
            ]
        );
        for spec in all_specs() {
            assert_eq!((spec.build)().name(), spec.name);
        }
    }

    #[test]
    fn every_pit_document_parses_with_a_state_model() {
        for spec in all_specs() {
            let parsed = pit::parse(spec.pit_document)
                .unwrap_or_else(|e| panic!("{} pit failed: {e}", spec.name));
            assert!(!parsed.data_models().is_empty(), "{}", spec.name);
            let state_model = parsed.state_model().expect(spec.name);
            state_model.validate().expect(spec.name);
            // Every transition references a declared data model.
            for state in state_model.states() {
                for t in &state.transitions {
                    assert!(
                        parsed.data_model(&t.input_model).is_some(),
                        "{}: missing data model {}",
                        spec.name,
                        t.input_model
                    );
                }
            }
        }
    }

    #[test]
    fn every_target_starts_under_defaults_with_coverage() {
        for spec in all_specs() {
            let mut target = (spec.build)();
            let map = CoverageMap::new(target.branch_count());
            target
                .start(&ResolvedConfig::new(), map.probe())
                .unwrap_or_else(|e| panic!("{} failed to start: {e}", spec.name));
            assert!(
                map.covered_count() >= 2,
                "{}: startup coverage too small",
                spec.name
            );
        }
    }

    #[test]
    fn every_config_surface_is_rich() {
        for spec in all_specs() {
            let target = (spec.build)();
            let model = extract_model(&target.config_space());
            assert!(
                model.len() >= 10,
                "{}: only {} entities",
                spec.name,
                model.len()
            );
            assert!(
                model.mutable_entities().count() >= 8,
                "{}: too few mutable entities",
                spec.name
            );
        }
    }

    /// Lockstep gate between the declarative constraints and the
    /// imperative `start` checks: every declared conflict must actually
    /// refuse to boot, and a clean configuration must both boot and pass
    /// the declared set.
    #[test]
    fn declared_constraints_match_start_behaviour() {
        for spec in crate::all_specs() {
            let mut target = (spec.build)();
            let constraints = target.config_constraints();
            assert!(
                !constraints.is_empty(),
                "{} declares no startup constraints",
                spec.name
            );

            let clean = ResolvedConfig::new();
            assert!(
                constraints.violations(&clean).is_empty(),
                "{} flags its own defaults",
                spec.name
            );
            let map = CoverageMap::new(target.branch_count());
            target
                .start(&clean, map.probe())
                .unwrap_or_else(|e| panic!("{} refuses defaults: {e}", spec.name));

            for constraint in constraints.constraints() {
                let witness = constraint.witness();
                assert!(
                    constraint.violated_by(&witness),
                    "{}: witness fails to violate `{}`",
                    spec.name,
                    constraint.reason()
                );
                let map = CoverageMap::new(target.branch_count());
                assert!(
                    target.start(&witness, map.probe()).is_err(),
                    "{}: `{}` witness {witness} boots anyway",
                    spec.name,
                    constraint.reason()
                );
            }
        }
    }

    /// Lockstep gate between the declared branch guards and the actual
    /// coverage behaviour, machine-checked through the reachability
    /// analyzer:
    ///
    /// * global-mode analysis over every subject's extracted model must be
    ///   diagnostic-free (each guard references known items and every
    ///   verdict is certified),
    /// * every startup guard must be proven reachable, and its canonical
    ///   witness must boot the server *and* cover the guarded branch,
    /// * on the default configuration, a startup guard's branch must be
    ///   covered iff its conditions hold — the exactness contract of
    ///   `GuardKind::Startup`.
    #[test]
    fn declared_guards_match_reachability_and_coverage() {
        use cmfuzz_analyze::{analyze_reachability, ReachSpace, ReachStatus};
        use cmfuzz_config_model::{extract_model, GuardKind};
        use cmfuzz_coverage::BranchId;

        for spec in crate::all_specs() {
            let mut target = (spec.build)();
            let guards = target.branch_guards();
            assert!(
                !guards.is_empty(),
                "{} declares no branch guards",
                spec.name
            );
            let model = extract_model(&target.config_space());
            let analysis = analyze_reachability(
                spec.name,
                &guards,
                &target.config_constraints(),
                &model,
                target.branch_count(),
                &ReachSpace::Global,
            );
            assert!(
                analysis.report().diagnostics().is_empty(),
                "{}: global reachability not clean:\n{}",
                spec.name,
                analysis.report().render_text()
            );

            let defaults = ResolvedConfig::new();
            let default_map = CoverageMap::new(target.branch_count());
            target.start(&defaults, default_map.probe()).unwrap();
            for guard in guards.iter() {
                if guard.kind() != GuardKind::Startup {
                    continue;
                }
                let holds = guard.conditions().iter().all(|c| c.matches(&defaults));
                let covered = default_map.hit_count(BranchId::from_index(guard.branch())) > 0;
                assert_eq!(
                    covered,
                    holds,
                    "{}: default boot covers `{}`={covered} but its guard holds={holds}",
                    spec.name,
                    guard.region()
                );
            }

            for row in analysis.branches() {
                if row.kind() != GuardKind::Startup {
                    continue;
                }
                let ReachStatus::Reachable { witness } = row.status() else {
                    panic!(
                        "{}: startup guard `{}` not proven reachable: {:?}",
                        spec.name,
                        row.region(),
                        row.status()
                    );
                };
                let map = CoverageMap::new(target.branch_count());
                target.start(witness, map.probe()).unwrap_or_else(|e| {
                    panic!(
                        "{}: witness {witness} for `{}` refuses to boot: {e}",
                        spec.name,
                        row.region()
                    )
                });
                assert!(
                    map.hit_count(BranchId::from_index(row.branch())) > 0,
                    "{}: witness {witness} boots but does not cover `{}`",
                    spec.name,
                    row.region()
                );
            }
        }
    }

    #[test]
    fn spec_by_name_round_trips() {
        assert!(spec_by_name("libcoap").is_some());
        assert!(spec_by_name("nginx").is_none());
    }

    #[test]
    fn generated_connect_is_parsed_by_broker() {
        use cmfuzz_fuzzer::Generator;
        let spec = spec_by_name("mosquitto").unwrap();
        let parsed = pit::parse(spec.pit_document).unwrap();
        let connect = Generator::render(parsed.data_model("Connect").unwrap());
        let mut target = (spec.build)();
        let map = CoverageMap::new(target.branch_count());
        target.start(&ResolvedConfig::new(), map.probe()).unwrap();
        target.begin_session();
        let response = target.handle(&connect);
        assert_eq!(response.bytes, vec![0x20, 0x02, 0x00, 0x00], "CONNACK ok");
    }

    #[test]
    fn generated_models_elicit_replies_from_every_target() {
        use cmfuzz_fuzzer::Generator;
        for spec in all_specs() {
            let parsed = pit::parse(spec.pit_document).unwrap();
            let mut target = (spec.build)();
            let map = CoverageMap::new(target.branch_count());
            target.start(&ResolvedConfig::new(), map.probe()).unwrap();
            target.begin_session();
            let before = map.covered_count();
            let mut replied = false;
            for model in parsed.data_models() {
                let bytes = Generator::render(model);
                let response = target.handle(&bytes);
                assert!(
                    !response.is_crash(),
                    "{}: model {} crashed under defaults",
                    spec.name,
                    model.name()
                );
                replied |= !response.bytes.is_empty();
            }
            assert!(
                map.covered_count() > before,
                "{}: generated inputs reached no new branches",
                spec.name
            );
            // DDS under its default best-effort reliability is
            // fire-and-forget: nothing is acknowledged, so no reply is
            // expected there.
            if spec.name != "cyclonedds" {
                assert!(replied, "{}: no model elicited a reply", spec.name);
            }
        }
    }
}
